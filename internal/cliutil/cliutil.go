// Package cliutil implements the shared flag conventions of the cmd/
// front-ends: registry-backed selector flags (-scenario, -workload)
// reject unknown values up front with the sorted registered names and
// exit status 2, matching the error shape dist.ByName produces for
// -dist — so every command suggests alternatives the same way and
// scripts can rely on the exit code.
package cliutil

import (
	"fmt"
	"os"
	"sort"
	"strings"
)

// exit is swapped out by tests; everything else goes through Fatal.
var exit = os.Exit

// CheckName validates a registry-backed selector: name must be one of
// names. On failure the error lists the registered names in sorted
// order, mirroring dist.ByName.
func CheckName(kind, name string, names []string) error {
	for _, n := range names {
		if n == name {
			return nil
		}
	}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	return fmt.Errorf("unknown %s %q; registered %ss: %s",
		kind, name, kind, strings.Join(sorted, ", "))
}

// CheckPositive validates an integer flag that must be strictly
// positive (worker pools, user counts, batch request sizes). The
// error names the flag so the message reads like the flag package's
// own diagnostics.
func CheckPositive(flagName string, v int) error {
	if v <= 0 {
		return fmt.Errorf("-%s must be > 0 (got %d)", flagName, v)
	}
	return nil
}

// CheckNonNegative validates a numeric flag where zero means "off"
// or "default" but negative values are nonsense (-batch, -capacity,
// -mu).
func CheckNonNegative[T int | float64](flagName string, v T) error {
	if v < 0 {
		return fmt.Errorf("-%s must be >= 0 (got %v)", flagName, v)
	}
	return nil
}

// CheckRequires validates a dependent flag: set reports whether the
// flag was enabled, ok whether the machinery it depends on is
// configured, and requirement names that prerequisite (e.g.
// "-batch > 0"). The error names the flag, like CheckPositive.
func CheckRequires(flagName string, set, ok bool, requirement string) error {
	if set && !ok {
		return fmt.Errorf("-%s requires %s", flagName, requirement)
	}
	return nil
}

// Fatal reports a usage-level error the way every front-end does:
// "<cmd>: <err>" on stderr, exit status 2 (the flag package's own
// usage-error status).
func Fatal(cmd string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", cmd, err)
	exit(2)
}
