package workload

import (
	"strings"
	"testing"

	ccore "txconflict/internal/core"
	"txconflict/internal/dist"
	"txconflict/internal/htm"
	"txconflict/internal/rng"
	"txconflict/internal/scenario"
	"txconflict/internal/strategy"
)

// build instantiates a registry scenario for the simulator through
// ByName, with the given length distribution and a constant think time
// (both in cycles).
func build(t testing.TB, name string, length dist.Sampler, think float64) *HTM {
	t.Helper()
	w, err := ByName(name, scenario.Options{Length: length, Think: dist.Constant{V: think}})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func runWorkload(t *testing.T, w *HTM, cores int, pol ccore.Policy, s ccore.Strategy, cycles uint64) (*htm.Machine, htm.Metrics) {
	t.Helper()
	p := htm.DefaultParams(cores)
	p.Policy = pol
	p.Strategy = s
	p.Seed = 77
	m := htm.NewMachine(p, w)
	m.Run(cycles)
	met := m.Drain()
	if met.Commits == 0 {
		t.Fatalf("%s: no commits", w.Name())
	}
	return m, met
}

// checkInvariant runs the workload and verifies the scenario's
// committed-state invariant against the drained directory image.
func checkInvariant(t *testing.T, w *HTM, pol ccore.Policy, s ccore.Strategy, cycles uint64) {
	t.Helper()
	m, met := runWorkload(t, w, 8, pol, s, cycles)
	if err := w.Check(m.Dir.ReadWord, met.PerCoreCommits); err != nil {
		t.Fatalf("%v: %v", pol, err)
	}
}

func TestStackInvariant(t *testing.T) {
	for _, pol := range []ccore.Policy{ccore.RequestorWins, ccore.RequestorAborts} {
		checkInvariant(t, build(t, "stack", dist.Constant{V: 15}, 10), pol, strategy.UniformRW{}, 400000)
	}
}

func TestStackPushPopAlternation(t *testing.T) {
	w := build(t, "stack", dist.Constant{V: 5}, 5)
	r := rng.New(1)
	// Core 0's stream must alternate push (ending in a +1 write to the
	// depth word) and pop (ending in a -1 write). A Tx's ops last until
	// the core's next draw, so each is inspected before the next.
	if tx1 := w.NextTx(0, r); tx1.Ops[3].Imm != 1 {
		t.Fatal("first tx is not a push")
	}
	if tx2 := w.NextTx(0, r); tx2.Ops[3].Imm != ^uint64(0) {
		t.Fatal("second tx is not a pop")
	}
	// Other cores have independent parity.
	tx3 := w.NextTx(1, r)
	if tx3.Ops[3].Imm != 1 {
		t.Fatal("core 1 first tx is not a push")
	}
}

func TestQueueInvariant(t *testing.T) {
	for _, pol := range []ccore.Policy{ccore.RequestorWins, ccore.RequestorAborts} {
		checkInvariant(t, build(t, "queue", dist.Constant{V: 15}, 10), pol, strategy.UniformRW{}, 400000)
	}
}

func TestTxAppInvariant(t *testing.T) {
	for _, pol := range []ccore.Policy{ccore.RequestorWins, ccore.RequestorAborts} {
		checkInvariant(t, build(t, "txapp", dist.Constant{V: 40}, 10), pol, strategy.UniformRW{}, 400000)
	}
}

func TestBimodalInvariant(t *testing.T) {
	checkInvariant(t, build(t, "bimodal", dist.Bimodal{Short: 50, Long: 5000, PShort: 0.5}, 10), ccore.RequestorWins, strategy.UniformRW{}, 1500000)
}

func TestBimodalMixesLengths(t *testing.T) {
	w := build(t, "bimodal", dist.Bimodal{Short: 10, Long: 1000, PShort: 0.5}, 0)
	r := rng.New(3)
	short, long := 0, 0
	for i := 0; i < 200; i++ {
		tx := w.NextTx(0, r)
		if tx.Ops[2].Cycles == 10 {
			short++
		} else if tx.Ops[2].Cycles == 1000 {
			long++
		} else {
			t.Fatalf("unexpected compute %d", tx.Ops[2].Cycles)
		}
	}
	if short == 0 || long == 0 {
		t.Fatalf("bimodal not mixing: %d short, %d long", short, long)
	}
}

func TestTxAppPicksDistinctObjects(t *testing.T) {
	w := build(t, "txapp", dist.Constant{V: 10}, 0)
	r := rng.New(5)
	for i := 0; i < 1000; i++ {
		tx := w.NextTx(0, r)
		if tx.Ops[0].Addr == tx.Ops[1].Addr {
			t.Fatal("transaction acquired the same object twice")
		}
	}
}

func TestTunedDelayPlausible(t *testing.T) {
	p := htm.DefaultParams(4)
	d := TunedDelay(build(t, "stack", dist.Constant{V: 15}, 10), p, 256)
	// Stack tx: 3 memory ops * 3 cycles + 15 compute + 10 commit = 34.
	if d < 20 || d > 60 {
		t.Fatalf("tuned delay %v implausible for stack", d)
	}
	// Bimodal tuned delay sits between the modes (that is exactly why
	// hand-tuning fails there).
	db := TunedDelay(build(t, "bimodal", dist.Bimodal{Short: 50, Long: 5000, PShort: 0.5}, 0), p, 2048)
	if db < 1000 || db > 4000 {
		t.Fatalf("tuned delay %v implausible for bimodal", db)
	}
}

func TestWorkloadNames(t *testing.T) {
	if build(t, "stack", dist.Constant{V: 1}, 1).Name() != "stack" ||
		build(t, "queue", dist.Constant{V: 1}, 1).Name() != "queue" ||
		build(t, "txapp", dist.Constant{V: 1}, 1).Name() != "txapp" ||
		build(t, "bimodal", dist.Bimodal{Short: 1, Long: 2, PShort: 0.5}, 1).Name() != "bimodal" {
		t.Fatal("workload names wrong")
	}
}

func TestStackUnderNoDelay(t *testing.T) {
	// The NO_DELAY baseline must also preserve the invariant.
	checkInvariant(t, build(t, "stack", dist.Constant{V: 15}, 10), ccore.RequestorWins, nil, 400000)
}

func TestByNameUnknown(t *testing.T) {
	_, err := ByName("nope", scenario.Options{})
	if err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Fatalf("err = %v, want unknown-scenario error", err)
	}
}

// TestCompileIndirectAddressing checks that register-indirect scenario
// ops land on per-word cache lines: the stack push's element store
// must address elemBase + depth*64 bytes.
func TestCompileIndirectAddressing(t *testing.T) {
	w := build(t, "stack", dist.Constant{V: 5}, 5)
	r := rng.New(1)
	tx := w.NextTx(0, r) // push
	st := tx.Ops[2]      // StoreAt(1, r0, ...)
	if st.Kind != htm.OpWrite || st.AddrReg != 0 || st.AddrShift != 6 {
		t.Fatalf("element store not compiled as shifted indirect: %+v", st)
	}
	regs := [8]uint64{3} // depth 3
	if got, want := st.EffectiveAddr(&regs), uint64((1+3)*64); got != want {
		t.Fatalf("effective addr %d, want %d", got, want)
	}
}

// TestEnsureWorkersFromMachine checks satellite fix #1: the machine
// sizes per-core scenario state from its actual core count, and
// overflowing the configured range panics with a clear message
// instead of silently wrapping or out-of-ranging.
func TestEnsureWorkersFromMachine(t *testing.T) {
	sc, err := scenario.ByName("stack", scenario.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	w := FromScenario(sc)
	p := htm.DefaultParams(8)
	htm.NewMachine(p, w) // must grow the 2-worker instance to 8 cores
	r := rng.New(1)
	for core := 0; core < 8; core++ {
		w.NextTx(core, r)
	}
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("expected panic for out-of-range worker")
		}
		if msg, ok := rec.(string); !ok || !strings.Contains(msg, "out of range") {
			t.Fatalf("panic = %v, want out-of-range message", rec)
		}
	}()
	w.NextTx(8, r)
}

// TestNextTxReusesPerCoreBuffer pins the ops-lifetime contract and
// what it buys: a core's successive transactions are compiled into one
// backing array, two cores never share one, and once every core has
// drawn its longest transaction NextTx allocates nothing. Growing the
// scenario behind the adapter's back still finds a buffer per core.
func TestNextTxReusesPerCoreBuffer(t *testing.T) {
	for _, name := range []string{"stack", "txapp", "hotspot", "readmostly", "longreader", "kvdoc"} {
		sc, err := scenario.ByName(name, scenario.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		w := FromScenario(sc)
		sc.EnsureWorkers(3)
		r := rng.New(5)
		for i := 0; i < 300; i++ { // warm: longreader's scan, readmostly's write tail
			w.NextTx(i%3, r)
		}
		a, b := w.NextTx(0, r), w.NextTx(2, r)
		if &a.Ops[0] == &b.Ops[0] {
			t.Fatalf("%s: cores 0 and 2 share a backing array", name)
		}
		kept := append([]htm.Op(nil), b.Ops...)
		if again := w.NextTx(0, r); &again.Ops[0] != &a.Ops[0] {
			t.Fatalf("%s: core 0's next transaction did not reuse its buffer", name)
		}
		for i, op := range kept {
			if b.Ops[i] != op {
				t.Fatalf("%s: core 0's draw rewrote core 2's op %d", name, i)
			}
		}
		if allocs := testing.AllocsPerRun(200, func() { w.NextTx(1, r) }); allocs != 0 {
			t.Errorf("%s: %.2f allocs per warm NextTx, want 0", name, allocs)
		}
	}
}

// TestDistOverride checks that the -dist plumbing reaches the
// compiled programs: a constant override pins every compute op.
func TestDistOverride(t *testing.T) {
	w, err := ByName("txapp", scenario.Options{Length: dist.Constant{V: 123}})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(9)
	for i := 0; i < 50; i++ {
		tx := w.NextTx(0, r)
		if tx.Ops[2].Cycles != 123 {
			t.Fatalf("compute = %d, want 123", tx.Ops[2].Cycles)
		}
	}
}

func BenchmarkStackSimulation(b *testing.B) {
	p := htm.DefaultParams(8)
	p.Strategy = strategy.UniformRW{}
	m := htm.NewMachine(p, build(b, "stack", dist.Constant{V: 15}, 10))
	b.ResetTimer()
	m.Run(uint64(b.N) * 100)
}
