package htm_test

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	ccore "txconflict/internal/core"
	"txconflict/internal/dist"
	"txconflict/internal/htm"
	"txconflict/internal/rng"
	"txconflict/internal/scenario"
	"txconflict/internal/sim"
	"txconflict/internal/strategy"
	"txconflict/internal/workload"
)

// updateGolden regenerates testdata/golden_cells.txt from the tree
// under test. The checked-in file's first thirteen cells were generated
// on the commit before the simulator went allocation-free (value-heap
// kernel, typed messages, tx-line set), its last three on the commit
// before the kernel's heap became a calendar wheel; a refactor of
// sim/cache/htm must leave it byte-identical, so only a deliberate
// model change may pass -update.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_cells.txt")

const goldenFile = "testdata/golden_cells.txt"

// goldenCell is one pinned simulation: a machine, how long it runs,
// and (when the workload has one) its committed-state invariant.
type goldenCell struct {
	name   string
	params htm.Params
	w      htm.Workload
	cycles sim.Time
	check  func(m *htm.Machine, fin htm.Metrics) error
}

func hotspot(t *testing.T, opt scenario.Options) (*workload.HTM, func(*htm.Machine, htm.Metrics) error) {
	t.Helper()
	w, err := workload.ByName("hotspot", opt)
	if err != nil {
		t.Fatal(err)
	}
	return w, func(m *htm.Machine, fin htm.Metrics) error {
		return w.Check(m.Dir.ReadWord, fin.PerCoreCommits)
	}
}

// capacityWorkload runs multi-line transactions on a 2-set x 1-way
// L1. Core 0 writes one even line and then reads another, so its own
// Modified transactional line is the only victim and every attempt
// is a capacity abort; the other cores move a unit from an even to an
// odd account, which fits (one line a set) and evicts the previous
// transaction's committed lines.
func capacityWorkload() htm.Workload {
	return htm.WorkloadFunc{
		N: "capacity",
		F: func(coreID int, r *rng.Rand) htm.Tx {
			if coreID == 0 {
				return htm.Tx{Ops: []htm.Op{
					htm.WriteImm(16*64, 7),
					htm.Read(18*64, 0),
					htm.Compute(10),
				}, ThinkTime: 5}
			}
			a, b := uint64(2*r.Intn(4))*64, uint64(2*r.Intn(4)+1)*64
			return htm.Tx{Ops: []htm.Op{
				htm.Read(a, 0),
				htm.Read(b, 1),
				htm.Compute(15),
				htm.Write(a, 0, ^uint64(0)),
				htm.Write(b, 1, 1),
			}, ThinkTime: 5}
		},
	}
}

func goldenCells(t *testing.T) []goldenCell {
	t.Helper()
	probe, _ := hotspot(t, scenario.Options{})
	tuned := workload.TunedDelay(probe, htm.DefaultParams(1), 512)
	var cells []goldenCell
	addOn := func(name string, cores int, opt scenario.Options, cycles sim.Time, mod func(p *htm.Params)) {
		w, check := hotspot(t, opt)
		p := htm.DefaultParams(cores)
		mod(&p)
		cells = append(cells, goldenCell{name, p, w, cycles, check})
	}
	add := func(name string, cycles sim.Time, mod func(p *htm.Params)) {
		addOn(name, 16, scenario.Options{}, cycles, mod)
	}

	// The benchmark's sim-hot-16 cells, seed 1: Fig3Set x {1,2}.
	for _, st := range strategy.Fig3Set(tuned) {
		for _, seed := range []uint64{1, 2} {
			st, seed := st, seed
			add(fmt.Sprintf("sim-hot-16/%s/seed%d", st.Name(), seed), 1000000, func(p *htm.Params) {
				p.Policy = ccore.RequestorWins
				p.Strategy = st
				p.Seed = seed
			})
		}
	}

	// The paths that workload never runs.
	add("requestor-aborts", 300000, func(p *htm.Params) {
		p.Policy = ccore.RequestorAborts
		p.Strategy = strategy.ExpRA{}
		p.Seed = 3
	})
	add("hybrid", 300000, func(p *htm.Params) {
		p.Hybrid = true
		p.Strategy = strategy.UniformRW{}
		p.Seed = 4
	})
	add("mesh", 300000, func(p *htm.Params) {
		p.MeshDim = 4
		p.HopLatency = 3
		p.Strategy = strategy.UniformRW{}
		p.Seed = 5
	})
	add("meanprofile-backoff", 300000, func(p *htm.Params) {
		p.UseMeanProfile = true
		p.Strategy = strategy.MeanRW{}
		p.BackoffFactor = 1.5
		p.MaxBackoffB = 2000
		p.Seed = 6
	})
	capP := htm.DefaultParams(4)
	capP.L1Sets, capP.L1Ways = 2, 1
	capP.Strategy = strategy.UniformRW{}
	capP.Seed = 7
	cells = append(cells, goldenCell{"capacity", capP, capacityWorkload(), 300000,
		func(m *htm.Machine, fin htm.Metrics) error {
			var total uint64
			for a := uint64(0); a < 8; a++ {
				total += m.Dir.ReadWord(a * 64)
			}
			if total != 0 {
				return fmt.Errorf("balance drifted by %d", int64(total))
			}
			return nil
		}})

	// Beyond the paper's grid: 32 and 64 cores reach queue depths and
	// same-cycle ties the 16-core cells never do, and a think time
	// longer than any restart backoff's first step puts the next
	// transaction's timer, not only restarts, far ahead of the clock.
	for i, cores := range []int{32, 64} {
		seed := uint64(8 + i)
		addOn(fmt.Sprintf("hotspot-%d", cores), cores, scenario.Options{}, 300000, func(p *htm.Params) {
			p.Strategy = strategy.UniformRW{}
			p.Seed = seed
		})
	}
	addOn("long-think", 16, scenario.Options{Think: dist.Constant{V: 5000}}, 300000, func(p *htm.Params) {
		p.Strategy = strategy.UniformRW{}
		p.Seed = 10
	})
	return cells
}

// renderMetrics is the pinned form of one Metrics snapshot.
func renderMetrics(b *strings.Builder, label string, met htm.Metrics, fired uint64) {
	var msgs uint64
	keys := make([]string, 0, len(met.Messages))
	for k, n := range met.Messages {
		keys = append(keys, k)
		msgs += n
	}
	sort.Strings(keys)
	fmt.Fprintf(b, "  %s: cycles=%d fired=%d commits=%d aborts=%d conflicts=%d grace=%d nack=%d capacity=%d msgs=%d mean=%016x\n",
		label, met.Cycles, fired, met.Commits, met.Aborts, met.Conflicts, met.GraceCommits,
		met.NackAborts, met.CapacityAborts, msgs, math.Float64bits(met.MeanTxCycles))
	fmt.Fprintf(b, "    percore=%v\n", met.PerCoreCommits)
	for _, k := range keys {
		fmt.Fprintf(b, "    %s=%d\n", k, met.Messages[k])
	}
}

// TestGoldenCells pins every simulated count of sixteen cells: a
// change to sim, cache or htm that moves one has changed the model,
// not just its cost.
func TestGoldenCells(t *testing.T) {
	type counts struct{ commits, aborts, conflicts, grace, nack, capacity, msgs, fired, cycles uint64 }
	var b strings.Builder
	var sum counts
	for _, c := range goldenCells(t) {
		m := htm.NewMachine(c.params, c.w)
		met := m.Run(c.cycles)
		fired := m.K.Fired()
		fmt.Fprintf(&b, "%s\n", c.name)
		renderMetrics(&b, "run", met, fired)
		fin := m.Drain()
		renderMetrics(&b, "drain", fin, m.K.Fired())
		if err := c.check(m, fin); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if err := m.Dir.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if strings.HasPrefix(c.name, "sim-hot-16/") {
			sum.commits += met.Commits
			sum.aborts += met.Aborts
			sum.conflicts += met.Conflicts
			sum.grace += met.GraceCommits
			sum.nack += met.NackAborts
			sum.capacity += met.CapacityAborts
			for _, n := range met.Messages {
				sum.msgs += n
			}
			sum.fired += fired
			sum.cycles += met.Cycles
		}
	}
	// The benchmark's seed-1 sim_counts for sim-hot-16.
	want := counts{commits: 30529, aborts: 37822, conflicts: 48837, grace: 9326,
		msgs: 1352358, fired: 1274504, cycles: 8000000}
	if sum != want {
		t.Errorf("sim-hot-16 sums %+v, want the benchmark's %+v", sum, want)
	}

	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(goldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantFile, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(wantFile) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(wantFile), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("golden mismatch at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("golden mismatch: %d lines, want %d", len(gl), len(wl))
	}
}
