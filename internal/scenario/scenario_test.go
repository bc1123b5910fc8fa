package scenario

import (
	"strings"
	"testing"
	"time"

	"txconflict/internal/dist"
	"txconflict/internal/rng"
	"txconflict/internal/stm"
)

// builtins is the catalog before any test registers a replay.
var builtins = []string{"bimodal", "hotspot", "kvcounter", "kvdoc", "kvread", "longreader", "queue", "readmostly", "stack", "txapp"}

func TestNamesAndByName(t *testing.T) {
	names := Names()
	want := builtins
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
	for _, n := range names {
		sc, err := ByName(n, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if sc.Name() != n {
			t.Fatalf("scenario name %q, want %q", sc.Name(), n)
		}
		if sc.Description() == "" {
			t.Fatalf("%s: empty description", n)
		}
		if sc.Words() <= 0 {
			t.Fatalf("%s: words = %d", n, sc.Words())
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	_, err := ByName("nope", Options{})
	if err == nil || !strings.Contains(err.Error(), "stack") {
		t.Fatalf("err = %v, want error listing known names", err)
	}
}

func TestDescribeCoversCatalog(t *testing.T) {
	if len(Describe()) != len(Names()) {
		t.Fatal("Describe/Names length mismatch")
	}
}

func TestStackProgramAlternation(t *testing.T) {
	sc, _ := ByName("stack", Options{Workers: 2})
	r := rng.New(1)
	// A program's ops last until the worker's next draw: look first.
	if push := sc.Next(0, r); push.Ops[3].Imm != 1 || push.Ops[3].Src != 0 {
		t.Fatalf("first program is not a push: %+v", push.Ops[3])
	}
	if pop := sc.Next(0, r); pop.Ops[3].Imm != ^uint64(0) {
		t.Fatalf("second program is not a pop: %+v", pop.Ops[3])
	}
	// Independent parity per worker.
	if p := sc.Next(1, r); p.Ops[3].Imm != 1 {
		t.Fatal("worker 1 first program is not a push")
	}
}

// TestNextReusesPerWorkerBuffer: a worker's successive programs share
// one backing array, two workers never do (also after EnsureWorkers
// regrows the table), and a warm built-in scenario draws without
// allocating.
func TestNextReusesPerWorkerBuffer(t *testing.T) {
	for _, name := range builtins {
		sc, err := ByName(name, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		sc.EnsureWorkers(3)
		r := rng.New(5)
		for i := 0; i < 300; i++ { // warm: longreader's scan, readmostly's write tail
			sc.Next(i%3, r)
		}
		a, b := sc.Next(0, r), sc.Next(2, r)
		if &a.Ops[0] == &b.Ops[0] {
			t.Fatalf("%s: workers 0 and 2 share a backing array", name)
		}
		kept := append([]Op(nil), b.Ops...)
		if again := sc.Next(0, r); &again.Ops[0] != &a.Ops[0] {
			t.Fatalf("%s: worker 0's next program did not reuse its buffer", name)
		}
		for i, op := range kept {
			if b.Ops[i] != op {
				t.Fatalf("%s: worker 0's draw rewrote worker 2's op %d", name, i)
			}
		}
		if allocs := testing.AllocsPerRun(200, func() { sc.Next(1, r) }); allocs != 0 {
			t.Errorf("%s: %.2f allocs per warm Next, want 0", name, allocs)
		}
	}
}

func TestWorkerRangePanics(t *testing.T) {
	sc, _ := ByName("txapp", Options{Workers: 2})
	defer func() {
		rec := recover()
		msg, ok := rec.(string)
		if !ok || !strings.Contains(msg, "out of range") {
			t.Fatalf("panic = %v, want out-of-range message", rec)
		}
	}()
	sc.Next(2, rng.New(1))
}

func TestEnsureWorkersGrowsNotShrinks(t *testing.T) {
	sc, _ := ByName("readmostly", Options{Workers: 2})
	words2 := sc.Words()
	sc.EnsureWorkers(8)
	if sc.Workers() != 8 {
		t.Fatalf("workers = %d, want 8", sc.Workers())
	}
	if sc.Words() != words2+6 {
		t.Fatalf("words = %d, want %d (one tally per worker)", sc.Words(), words2+6)
	}
	sc.EnsureWorkers(4)
	if sc.Workers() != 8 {
		t.Fatal("EnsureWorkers must never shrink")
	}
}

func TestLengthOverride(t *testing.T) {
	sc, _ := ByName("txapp", Options{Workers: 1, Length: dist.Constant{V: 321}})
	p := sc.Next(0, rng.New(2))
	if p.Ops[2].Kind != OpCompute || p.Ops[2].Cycles != 321 {
		t.Fatalf("compute op = %+v, want 321 cycles", p.Ops[2])
	}
}

func TestLengthClamped(t *testing.T) {
	sc, _ := ByName("txapp", Options{Workers: 1, Length: dist.Constant{V: 1e12}})
	p := sc.Next(0, rng.New(2))
	if p.Ops[2].Cycles != lenCap {
		t.Fatalf("compute = %v, want clamped to %v", p.Ops[2].Cycles, lenCap)
	}
}

func TestHotspotSkew(t *testing.T) {
	sc, _ := ByName("hotspot", Options{Workers: 1, Length: dist.Constant{V: 1}})
	r := rng.New(7)
	hits := make(map[int]int)
	for i := 0; i < 4000; i++ {
		p := sc.Next(0, r)
		hits[p.Ops[0].Word]++
		hits[p.Ops[1].Word]++
	}
	if hits[0] <= 4*hits[32] {
		t.Fatalf("object 0 not hot: %d vs object 32's %d", hits[0], hits[32])
	}
	for w := range hits {
		if w < 0 || w >= objects {
			t.Fatalf("object %d out of range", w)
		}
	}
}

func TestHotspotDistinctObjects(t *testing.T) {
	sc, _ := ByName("hotspot", Options{Workers: 1})
	r := rng.New(8)
	for i := 0; i < 2000; i++ {
		// Program shape: Work, Add(i), Add(j).
		p := sc.Next(0, r)
		if p.Ops[1].Kind != OpAdd || p.Ops[2].Kind != OpAdd {
			t.Fatal("hotspot increments are not tagged commutative deltas")
		}
		if p.Ops[1].Word == p.Ops[2].Word {
			t.Fatal("hotspot picked the same object twice")
		}
	}
}

func TestReadMostlyWriteFraction(t *testing.T) {
	sc, _ := ByName("readmostly", Options{Workers: 1})
	r := rng.New(3)
	writes, total := 0, 0
	for i := 0; i < 4000; i++ {
		total++
		p := sc.Next(0, r)
		wrote := false
		seen := map[int]bool{}
		for _, op := range p.Ops {
			if op.Kind == OpWrite {
				wrote = true
			}
			if op.Kind == OpRead && op.Word < objects {
				if seen[op.Word] {
					t.Fatal("duplicate object read in one transaction")
				}
				seen[op.Word] = true
			}
		}
		if wrote {
			writes++
		}
	}
	frac := float64(writes) / float64(total)
	if frac < 0.1 || frac > 0.3 {
		t.Fatalf("write fraction %v, want ~0.2", frac)
	}
}

func TestOpResolution(t *testing.T) {
	regs := [8]uint64{5, 0, 0, 0, 0, 0, 0, 9}
	if got := LoadAt(2, 0, maskAll, 1).WordIndex(&regs); got != 7 {
		t.Fatalf("indirect word = %d, want 7", got)
	}
	if got := Load(3, 0).WordIndex(&regs); got != 3 {
		t.Fatalf("static word = %d, want 3", got)
	}
	if got := Store(0, 7, 1).Value(&regs); got != 10 {
		t.Fatalf("reg+imm value = %d, want 10", got)
	}
}

// TestSTMRunnerSingleWorker runs every scenario single-threaded on
// the real runtime and verifies the invariant — the cheap smoke half
// of the parity suite.
func TestSTMRunnerSingleWorker(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			sc, err := ByName(name, Options{Workers: 1, Think: dist.Constant{V: 0}})
			if err != nil {
				t.Fatal(err)
			}
			rn := NewSTMRunner(sc, stm.DefaultConfig())
			r := rng.New(11)
			const ops = 500
			for i := 0; i < ops; i++ {
				rn.RunOne(0, r)
			}
			if err := rn.Check([]uint64{ops}); err != nil {
				t.Fatal(err)
			}
			if got := rn.Runtime().Stats.Snapshot()["commits"]; got < ops {
				t.Fatalf("runtime commits %d < %d ops", got, ops)
			}
		})
	}
}

func TestDriveCountsMatchInvariant(t *testing.T) {
	sc, _ := ByName("stack", Options{Workers: 4})
	rn := NewSTMRunner(sc, stm.DefaultConfig())
	res := rn.Drive(4, 30*time.Millisecond, 5)
	if res.Ops() == 0 {
		t.Fatal("no transactions completed")
	}
	if err := rn.Check(res.PerWorker); err != nil {
		t.Fatal(err)
	}
	if res.OpsPerSec() <= 0 {
		t.Fatal("non-positive throughput")
	}
}

func TestDriveTooManyWorkersPanics(t *testing.T) {
	sc, _ := ByName("txapp", Options{Workers: 2})
	rn := NewSTMRunner(sc, stm.DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when workers exceed the sized instance")
		}
	}()
	rn.Drive(4, time.Millisecond, 1)
}
