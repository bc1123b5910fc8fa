package htm

import (
	"reflect"
	"testing"

	"txconflict/internal/strategy"
)

// TestRunExtendsWindow: a second Run must only move the limit. It
// used to start every core again, leaving two transaction streams per
// core with the newer overwriting the older's ops mid-flight.
func TestRunExtendsWindow(t *testing.T) {
	build := func() *Machine {
		p := DefaultParams(8)
		p.Strategy = strategy.UniformRW{}
		p.Seed = 11
		return NewMachine(p, counterWorkload(30, 5))
	}
	const a, b = 60000, 90000
	one := build()
	want := one.Run(a + b)

	two := build()
	if first := two.Run(a); first.Commits == 0 || first.Commits >= want.Commits {
		t.Fatalf("first window committed %d of %d", first.Commits, want.Commits)
	}
	got := two.Run(a + b)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Run(a); Run(a+b) diverged from Run(a+b):\n got  %+v\n want %+v", got, want)
	}
	if one.K.Fired() != two.K.Fired() {
		t.Fatalf("fired %d events in two windows, %d in one", two.K.Fired(), one.K.Fired())
	}
	fin := two.Drain()
	if c := two.Dir.ReadWord(0); c != fin.Commits {
		t.Fatalf("counter = %d after %d commits", c, fin.Commits)
	}
}

// TestReadWordDoesNotInsert: checking memory must not change the
// directory — a word nobody requested reads as zero and leaves no
// directory entry behind.
func TestReadWordDoesNotInsert(t *testing.T) {
	m := NewMachine(DefaultParams(2), counterWorkload(10, 5))
	m.Run(20000)
	m.Drain()
	before := len(m.Dir.entries)
	for addr := uint64(0); addr < 64*64; addr += 64 {
		if v := m.Dir.ReadWord(addr); addr != 0 && v != 0 {
			t.Fatalf("untouched word %d reads %d", addr, v)
		}
	}
	if m.Dir.ReadWord(0) == 0 {
		t.Fatal("the counter word reads zero")
	}
	if after := len(m.Dir.entries); after != before {
		t.Fatalf("ReadWord grew the directory from %d to %d entries", before, after)
	}
}
