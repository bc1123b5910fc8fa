package cliutil

import (
	"errors"
	"strings"
	"testing"
)

func TestCheckNameAccepts(t *testing.T) {
	if err := CheckName("scenario", "stack", []string{"queue", "stack"}); err != nil {
		t.Fatalf("known name rejected: %v", err)
	}
}

func TestCheckNameRejectsWithSortedSuggestions(t *testing.T) {
	names := []string{"zeta", "alpha", "mid"}
	err := CheckName("workload", "nope", names)
	if err == nil {
		t.Fatal("unknown name accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `unknown workload "nope"`) {
		t.Fatalf("message lacks the kind and value: %q", msg)
	}
	if !strings.Contains(msg, "registered workloads: alpha, mid, zeta") {
		t.Fatalf("suggestions missing or unsorted: %q", msg)
	}
	// The input slice must not be reordered in place.
	if names[0] != "zeta" || names[2] != "mid" {
		t.Fatalf("CheckName mutated its input: %v", names)
	}
}

func TestFatalExitsWithStatus2(t *testing.T) {
	var got int
	old := exit
	exit = func(code int) { got = code }
	defer func() { exit = old }()
	Fatal("somecmd", errors.New("boom"))
	if got != 2 {
		t.Fatalf("Fatal exited with %d, want 2", got)
	}
}

func TestCheckPositive(t *testing.T) {
	if err := CheckPositive("workers", 1); err != nil {
		t.Fatalf("1 rejected: %v", err)
	}
	for _, v := range []int{0, -3} {
		err := CheckPositive("workers", v)
		if err == nil {
			t.Fatalf("%d accepted", v)
		}
		if !strings.Contains(err.Error(), "-workers must be > 0") {
			t.Fatalf("message lacks the flag name and bound: %q", err)
		}
	}
}

func TestCheckNonNegative(t *testing.T) {
	for _, v := range []int{0, 7} {
		if err := CheckNonNegative("batch", v); err != nil {
			t.Fatalf("%d rejected: %v", v, err)
		}
	}
	err := CheckNonNegative("batch", -1)
	if err == nil {
		t.Fatal("-1 accepted")
	}
	if !strings.Contains(err.Error(), "-batch must be >= 0 (got -1)") {
		t.Fatalf("message lacks the flag name and value: %q", err)
	}
	// Float flags (-mu) share the check and the message shape.
	if err := CheckNonNegative("mu", 0.0); err != nil {
		t.Fatalf("0.0 rejected: %v", err)
	}
	if err := CheckNonNegative("mu", -2.5); err == nil || !strings.Contains(err.Error(), "-mu must be >= 0 (got -2.5)") {
		t.Fatalf("-2.5: err = %v, want the flag name and value", err)
	}
}

func TestCheckRequires(t *testing.T) {
	// Unset flags never trip the check, whether or not the
	// prerequisite holds.
	for _, ok := range []bool{false, true} {
		if err := CheckRequires("fold", false, ok, "-batch > 0"); err != nil {
			t.Fatalf("unset flag rejected (ok=%v): %v", ok, err)
		}
	}
	if err := CheckRequires("fold", true, true, "-batch > 0"); err != nil {
		t.Fatalf("satisfied requirement rejected: %v", err)
	}
	err := CheckRequires("fold", true, false, "-batch > 0")
	if err == nil {
		t.Fatal("unmet requirement accepted")
	}
	if !strings.Contains(err.Error(), "-fold requires -batch > 0") {
		t.Fatalf("message lacks the flag name and requirement: %q", err)
	}
}
