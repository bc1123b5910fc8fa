package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestDeterministicSectionsGolden regenerates every section that does
// not depend on wall-clock timing at -quick sizes with seed 1 and
// compares it byte for byte with testdata/<file>. No test rewrites
// those files: a diff here means a change moved a paper number.
func TestDeterministicSectionsGolden(t *testing.T) {
	s := sizesFor(true, 1)
	for _, sec := range sections {
		if sec.timed {
			continue
		}
		t.Run(sec.file, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("testdata", sec.file))
			if err != nil {
				t.Fatal(err)
			}
			tabs, err := sec.build(s)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := writeTables(&got, tabs); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s differs from testdata:\ngot:\n%s\nwant:\n%s", sec.file, got.Bytes(), want)
			}
		})
	}
}

// TestSeedReachesTimedSections pins that -seed reaches the runs behind
// stm.txt, stm_ablations.txt and tracefidelity.txt: all three build
// their STM config with stmConfig, so it must carry the run's seed
// (and the simulator sections' fig3Config likewise), not the
// DefaultSTMConfig seed of 1.
func TestSeedReachesTimedSections(t *testing.T) {
	for _, quick := range []bool{true, false} {
		for _, seed := range []uint64{1, 2, 7} {
			s := sizesFor(quick, seed)
			if got := stmConfig(s); got.Seed != seed || got.Duration != s.stm {
				t.Errorf("quick=%v seed=%d: stmConfig has seed %d, duration %v; want %d, %v",
					quick, seed, got.Seed, got.Duration, seed, s.stm)
			}
			if got := fig3Config(s).Seed; got != seed {
				t.Errorf("quick=%v seed=%d: fig3Config has seed %d", quick, seed, got)
			}
		}
	}
}
