package main

import (
	"fmt"
	"runtime"
	"time"

	"txconflict/internal/core"
	"txconflict/internal/htm"
	"txconflict/internal/strategy"
)

// simCell is one request of sim-hot-16: a Figure 3 cell, built, run,
// drained and checked.
type simCell struct {
	strat core.Strategy
	seed  uint64
}

// simCounts is every simulated statistic of one segment. The
// simulator is deterministic, so these must repeat exactly from
// segment to segment and run to run; a "speed-up" that moves one is a
// behaviour change.
type simCounts struct {
	Commits, Aborts, Conflicts        uint64
	GraceCommits, CapAborts, NackAbts uint64
	Msgs, Events, Cycles              uint64
}

// cellTimes is the host time of each public call a cell makes, and
// the commits the cell simulated in that time.
type cellTimes struct {
	build, run, drain, check time.Duration
	commits                  uint64
}

func (c cellTimes) total() time.Duration { return c.build + c.run + c.drain + c.check }

type simRunner struct {
	in     simInputs
	cells  []simCell
	cycles uint64
}

// newSimRunner is sim-hot-16's set-up: probe the tuned delay,
// fingerprint the inputs, and run every cell once for warmCycles so
// the heap has reached the size a cell needs.
func newSimRunner(seed, cycles, warmCycles uint64) (*simRunner, error) {
	in, err := buildSimInputs(seed)
	if err != nil {
		return nil, err
	}
	s := &simRunner{in: in, cycles: cycles}
	for _, st := range strategy.Fig3Set(in.tuned) {
		for _, sd := range in.seeds {
			s.cells = append(s.cells, simCell{st, sd})
		}
	}
	for _, c := range s.cells {
		if _, _, err := s.cell(c, warmCycles, nil); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *simRunner) cell(c simCell, cycles uint64, tr *tracer) (cellTimes, simCounts, error) {
	w, err := newSimWorkload()
	if err != nil {
		return cellTimes{}, simCounts{}, err
	}
	p := htm.DefaultParams(simCores)
	p.Policy = core.RequestorWins
	p.Strategy = c.strat
	p.Seed = c.seed

	root := tr.begin()
	t0 := time.Now()
	m := htm.NewMachine(p, w)
	t1 := time.Now()
	met := m.Run(cycles)
	t2 := time.Now()
	fired := m.K.Fired()
	fin := m.Drain()
	t3 := time.Now()
	err = w.Check(m.Dir.ReadWord, fin.PerCoreCommits)
	t4 := time.Now()
	if tr != nil {
		tr.end(root, 0, "client.do", t0, t4)
		for _, ph := range []struct {
			name   string
			t0, t1 time.Time
		}{{"htm.build", t0, t1}, {"htm.run", t1, t2}, {"htm.drain", t2, t3}, {"htm.check", t3, t4}} {
			tr.end(tr.begin(), root, ph.name, ph.t0, ph.t1)
		}
	}
	if err != nil {
		err = fmt.Errorf("cell %s seed %d: %w", c.strat.Name(), c.seed, err)
	}
	cnt := simCounts{
		Commits: met.Commits, Aborts: met.Aborts, Conflicts: met.Conflicts,
		GraceCommits: met.GraceCommits, CapAborts: met.CapacityAborts, NackAbts: met.NackAborts,
		Events: fired, Cycles: met.Cycles,
	}
	for _, n := range met.Messages {
		cnt.Msgs += n
	}
	return cellTimes{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3), met.Commits}, cnt, err
}

func (c *simCounts) add(o simCounts) {
	c.Commits += o.Commits
	c.Aborts += o.Aborts
	c.Conflicts += o.Conflicts
	c.GraceCommits += o.GraceCommits
	c.CapAborts += o.CapAborts
	c.NackAbts += o.NackAbts
	c.Msgs += o.Msgs
	c.Events += o.Events
	c.Cycles += o.Cycles
}

// fastestPasses is sim-hot-16's estimate of its timing metrics from
// every pass's cell times (times holds whole passes, cell after
// cell). A cell does exactly the same single-threaded work on every
// pass, so whatever one pass took beyond the fastest was the host, not
// the simulator: each cell counts with its fastest pass. The request
// percentiles are taken over those and the throughput is all the
// cells' commits over all their fastest times. On this box a bare ALU
// loop's fastest 50 ms in thirty seconds repeats within 2 % while its
// median moves by 17 %.
func fastestPasses(times []cellTimes, cells int) map[string]float64 {
	lat := make([]uint32, cells)
	var commits uint64
	var secs float64
	for c := range lat {
		best := times[c].total()
		for i := c + cells; i < len(times); i += cells {
			best = min(best, times[i].total())
		}
		lat[c] = uint32(best)
		commits += times[c].commits
		secs += best.Seconds()
	}
	sum := summarize(lat)
	return map[string]float64{"req_p50_us": sum.p50, "req_p90_us": sum.p90, "ops_per_s": float64(commits) / secs}
}

// segment runs every cell once: fixed work, so host time is the
// measurement. failed counts cells whose committed state broke the
// scenario invariant.
func (s *simRunner) segment(tr *tracer) (seg segment, cnt simCounts, times []cellTimes, failed uint64, firstErr error) {
	lat := make([]uint32, 0, len(s.cells))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for _, c := range s.cells {
		ct, cc, err := s.cell(c, s.cycles, tr)
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
		cnt.add(cc)
		times = append(times, ct)
		lat = append(lat, uint32(ct.total()))
	}
	secs := time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	sum := summarize(lat)
	return segment{lat: sum, ops: cnt.Commits, secs: secs, mallocs: m1.Mallocs - m0.Mallocs}, cnt, times, failed, firstErr
}
