package scenario

import (
	"slices"
	"strings"
	"testing"

	"txconflict/internal/rng"
)

// TestKVScenariosRegistered pins the keyed shapes' presence in the
// shared registry (they ride the parity and cross-mode matrices from
// there).
func TestKVScenariosRegistered(t *testing.T) {
	for _, name := range []string{"kvcounter", "kvread", "kvdoc"} {
		if !slices.Contains(Names(), name) {
			t.Fatalf("scenario %q not registered (have %v)", name, Names())
		}
		sc, err := ByName(name, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if sc.Words() < kvKeys {
			t.Fatalf("%s arena only %d words", name, sc.Words())
		}
		p := sc.Next(0, rng.New(1))
		if len(p.Ops) == 0 {
			t.Fatalf("%s produced an empty program", name)
		}
	}
}

// TestKVDocCheckDetectsTearing proves the kvdoc invariant has teeth:
// a committed state where one field of a document lags the others
// must be rejected as a torn (non-atomic) document write.
func TestKVDocCheckDetectsTearing(t *testing.T) {
	sc, err := ByName("kvdoc", Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	words := make([]uint64, sc.Words())
	// Two clean bumps of document 0...
	for f := 0; f < kvDocFields; f++ {
		words[f] = 2
	}
	clean := &State{
		Read:             func(w int) uint64 { return words[w] },
		PerWorkerCommits: []uint64{2},
	}
	if err := sc.Check(clean); err != nil {
		t.Fatalf("clean state rejected: %v", err)
	}
	// ...then one field torn.
	words[kvDocFields-1] = 1
	if err := sc.Check(clean); err == nil || !strings.Contains(err.Error(), "torn") {
		t.Fatalf("torn document not detected (err = %v)", err)
	}
	// And a bump-count mismatch (lost update) is also caught.
	words[kvDocFields-1] = 2
	clean.PerWorkerCommits = []uint64{3}
	if err := sc.Check(clean); err == nil {
		t.Fatal("lost document bump not detected")
	}
}

// TestKVCounterCheckDetectsLostUpdate proves the kvcounter tally
// invariant rejects a lost counter increment.
func TestKVCounterCheckDetectsLostUpdate(t *testing.T) {
	sc, err := ByName("kvcounter", Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	words := make([]uint64, sc.Words())
	words[3] = 5        // counter key 3
	words[kvKeys] = 3   // worker 0 tally
	words[kvKeys+1] = 2 // worker 1 tally
	st := &State{Read: func(w int) uint64 { return words[w] }, PerWorkerCommits: []uint64{3, 2}}
	if err := sc.Check(st); err != nil {
		t.Fatalf("consistent state rejected: %v", err)
	}
	words[3] = 4 // one lost increment
	if err := sc.Check(st); err == nil {
		t.Fatal("lost keyed increment not detected")
	}
}
