package txconflict_test

import (
	"os/exec"
	"testing"
)

// seedFailedPackages lists the packages still in the tree that failed
// at setup in the seed tree (every importer of the then-missing
// internal/dist). Keeping them building is this module's most basic
// regression guarantee: a change that breaks dist's API surfaces here
// by name rather than as a wall of unrelated compile errors.
var seedFailedPackages = []string{
	"txconflict", // bench_test.go
	"txconflict/internal/adversary",
	"txconflict/internal/strategy",
	"txconflict/internal/synth",
	"txconflict/cmd/paper",
}

// TestSeedFailedPackagesBuild compiles each previously [setup failed]
// package (including its tests) through the toolchain.
func TestSeedFailedPackagesBuild(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go toolchain not on PATH: %v", err)
	}
	for _, pkg := range seedFailedPackages {
		pkg := pkg
		t.Run(pkg, func(t *testing.T) {
			// `go vet` type-checks the package together with its test
			// files, which is exactly the seed's failure mode.
			out, err := exec.Command("go", "vet", pkg).CombinedOutput()
			if err != nil {
				t.Errorf("go vet %s: %v\n%s", pkg, err, out)
			}
		})
	}
}
