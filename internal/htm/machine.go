package htm

import (
	"fmt"

	"txconflict/internal/cache"
	"txconflict/internal/rng"
	"txconflict/internal/sim"
)

// Machine assembles cores, directory and the event kernel into a
// runnable multicore HTM simulation.
type Machine struct {
	K     *sim.Kernel
	P     Params
	Dir   *Directory
	Cores []*Core
	W     Workload

	msgs [numCounters]uint64
	free *message // recycled messages, linked through next

	profMean float64
	profInit bool
	started  bool
	stopping bool
}

// NewMachine builds a machine for the given parameters and workload.
// Workloads that carry per-core state can implement
// EnsureWorkers(n int); it is called with the actual core count so
// the state is sized to the machine instead of a hard-coded maximum.
func NewMachine(p Params, w Workload) *Machine {
	p.validate()
	if ws, ok := w.(interface{ EnsureWorkers(n int) }); ok {
		ws.EnsureWorkers(p.Cores)
	}
	m := &Machine{K: &sim.Kernel{}, P: p, W: w}
	m.Dir = newDirectory(m)
	root := rng.New(p.Seed)
	for i := 0; i < p.Cores; i++ {
		m.Cores = append(m.Cores, newCore(i, m, root.Split()))
	}
	return m
}

func (m *Machine) count(c counter) { m.msgs[c]++ }

// post schedules a typed event carrying a recycled message and
// returns the message for the sender to fill in; the receiving handler
// releases it. The pool grows to the most messages ever in flight.
func (m *Machine) post(d sim.Time, h sim.Handler, kind int) *message {
	mg := m.free
	if mg == nil {
		mg = new(message)
	} else {
		m.free = mg.next
	}
	m.K.Post(d, h, kind, 0, mg)
	return mg
}

func (m *Machine) release(mg *message) {
	mg.next = m.free
	m.free = mg
}

// coreDirLatency returns the one-way message latency between a core
// and the directory: uniform NetLatency, or distance-dependent when a
// mesh topology is configured (cores on a MeshDim² grid, directory at
// the center tile).
func (m *Machine) coreDirLatency(core int) sim.Time {
	if m.P.MeshDim == 0 {
		return m.P.NetLatency
	}
	d := m.P.MeshDim
	x, y := core%d, core/d
	cx, cy := d/2, d/2
	hops := absInt(x-cx) + absInt(y-cy)
	return m.P.NetLatency + sim.Time(hops)*m.P.HopLatency
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// profileUpdate feeds a committed transaction length into the
// exponentially weighted running mean (the "profiler" of Section 1).
func (m *Machine) profileUpdate(execLen float64) {
	const alpha = 0.1
	if !m.profInit {
		m.profMean = execLen
		m.profInit = true
		return
	}
	m.profMean += alpha * (execLen - m.profMean)
}

// ProfileMean returns the profiler's mean estimate of committed
// transaction length in cycles (0 = unknown); it is the µ source of
// the conflict rule.
func (m *Machine) ProfileMean() float64 {
	if !m.profInit {
		return 0
	}
	return m.profMean
}

// Run simulates until the clock reads cycles and returns metrics. The
// first call starts the cores; a later one only extends the window,
// so Run(a) then Run(a+b) is Run(a+b).
func (m *Machine) Run(cycles sim.Time) Metrics {
	if !m.started {
		m.started = true
		for _, c := range m.Cores {
			c.start()
		}
	}
	m.K.RunUntil(cycles)
	return m.Collect()
}

// Drain stops cores from starting new transactions (and from
// restarting aborted ones — without this, a NO_DELAY run under heavy
// contention can livelock forever, transactions endlessly shooting
// each other down) and runs the kernel until every in-flight
// transaction and message settles. Tests use it to compare the
// directory's committed memory image against commit counts exactly.
func (m *Machine) Drain() Metrics {
	m.stopping = true
	m.K.Run()
	return m.Collect()
}

// Collect snapshots metrics without advancing the simulation.
func (m *Machine) Collect() Metrics {
	met := Metrics{
		Cycles:   m.K.Now(),
		Messages: make(map[string]uint64, numCounters),
	}
	for c, n := range m.msgs {
		if n != 0 {
			met.Messages[counterNames[c]] = n
		}
	}
	for _, c := range m.Cores {
		met.Commits += c.commits
		met.Aborts += c.aborts
		met.Conflicts += c.conflicts
		met.GraceCommits += c.graceCommits
		met.NackAborts += c.nackAborts
		met.CapacityAborts += c.capAborts
		met.PerCoreCommits = append(met.PerCoreCommits, c.commits)
	}
	met.MeanTxCycles = m.ProfileMean()
	return met
}

// checkCoherence verifies the protocol invariants that must hold at
// every instant, even with messages in flight:
//
//  1. at most one core caches any line in Modified state;
//  2. a Modified copy excludes all other valid copies;
//  3. a Modified copy implies the directory believes that core owns
//     the line;
//  4. a Shared copy implies the core is in the directory's sharer set
//     (or is the still-believed owner during a demote-in-flight).
func (m *Machine) checkCoherence() error {
	type holder struct {
		core  int
		state cache.State
	}
	holders := make(map[cache.LineAddr][]holder)
	for _, c := range m.Cores {
		c.L1.ForEach(func(l *cache.Line) {
			holders[l.Tag] = append(holders[l.Tag], holder{c.id, l.State})
		})
	}
	for la, hs := range holders {
		modified := -1
		for _, h := range hs {
			if h.state == cache.Modified {
				if modified >= 0 {
					return fmt.Errorf("line %d: modified in cores %d and %d", la, modified, h.core)
				}
				modified = h.core
			}
		}
		if modified >= 0 && len(hs) > 1 {
			return fmt.Errorf("line %d: modified in core %d alongside %d other copies", la, modified, len(hs)-1)
		}
		e := m.Dir.entry(la)
		if modified >= 0 {
			if e.state != dirM || e.owner != modified {
				return fmt.Errorf("line %d: core %d has M but directory state=%d owner=%d", la, modified, e.state, e.owner)
			}
		}
		for _, h := range hs {
			if h.state != cache.Shared {
				continue
			}
			inSharers := e.state == dirS && e.sharers&(1<<uint(h.core)) != 0
			demoteWindow := e.state == dirM && e.owner == h.core
			if !inSharers && !demoteWindow {
				return fmt.Errorf("line %d: core %d has S but directory disagrees (state=%d sharers=%b owner=%d)", la, h.core, e.state, e.sharers, e.owner)
			}
		}
	}
	return nil
}
