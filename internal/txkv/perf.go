package txkv

import (
	"fmt"
	"runtime"
	"time"

	"txconflict/internal/metrics"
	"txconflict/internal/stm"
)

// PerfCell is one measured point of the keyed-throughput matrix:
// workload x commit mode x GOMAXPROCS.
type PerfCell struct {
	Workload   string  `json:"workload"`
	Mode       string  `json:"mode"` // eager | lazy | lazy+batch<N>
	GOMAXPROCS int     `json:"gomaxprocs"`
	Users      int     `json:"users"`
	OpsPerSec  float64 `json:"opsPerSec"`
	Ops        uint64  `json:"ops"`
	Commits    uint64  `json:"commits"`
	Aborts     uint64  `json:"aborts"`
	Batches    uint64  `json:"batches,omitempty"`
	Folded     uint64  `json:"foldedCommits,omitempty"`
	// Commit-latency quantiles from the cell's metrics plane, so the
	// serving-stack trajectory records the tail alongside ops/sec.
	CommitP50Ns float64 `json:"p50Ns,omitempty"`
	CommitP99Ns float64 `json:"p99Ns,omitempty"`
}

// PerfReport is the BENCH_txkv.json payload — the serving stack's
// end-to-end requests/sec trajectory, the number every future perf
// PR gets to move.
type PerfReport struct {
	Unit       string     `json:"unit"`
	DurationMS int64      `json:"durationMs"`
	Seed       uint64     `json:"seed"`
	Batch      int        `json:"batchOpsPerRequest"`
	Cells      []PerfCell `json:"cells"`
}

// PerfConfig tunes the matrix.
type PerfConfig struct {
	// Workloads to measure (default: every registered workload).
	Workloads []string
	// Procs are the GOMAXPROCS levels (default 1, 4, 8). Each cell
	// pins GOMAXPROCS and runs procs closed-loop users, so the cell
	// measures scheduler-level parallelism, not oversubscription.
	Procs []int
	// CommitBatch is the lazy+batch mode's bound (default 4).
	CommitBatch int
	// Duration per cell (default 150ms).
	Duration time.Duration
	// Seed for reproducible op streams.
	Seed uint64
}

// perfModes returns the commit paths the matrix compares: the three
// classic modes plus the folded cell — lazy+batch with commutative
// folding on, over an escrow-counter store, so Add traffic commits
// as summed deltas instead of colliding read-modify-writes.
func perfModes(commitBatch int) []struct {
	name   string
	cfg    stm.Config
	escrow bool
} {
	eager := stm.DefaultConfig()
	lazy := eager
	lazy.Lazy = true
	batched := lazy
	batched.CommitBatch = commitBatch
	folded := batched
	folded.FoldCommutative = true
	return []struct {
		name   string
		cfg    stm.Config
		escrow bool
	}{
		{"eager", eager, false},
		{"lazy", lazy, false},
		{fmt.Sprintf("lazy+batch%d", commitBatch), batched, false},
		{fmt.Sprintf("lazy+batch%d+fold", commitBatch), folded, true},
	}
}

// Perf measures the full workload x mode x GOMAXPROCS matrix on
// in-process stores (LocalClient — the store's own throughput,
// without HTTP encode/decode). Every cell is verified: structural
// invariants plus the workload's semantic check; a violation fails
// the whole snapshot.
func Perf(cfg PerfConfig) (*PerfReport, error) {
	if len(cfg.Workloads) == 0 {
		cfg.Workloads = Names()
	}
	if len(cfg.Procs) == 0 {
		cfg.Procs = []int{1, 4, 8}
	}
	if cfg.CommitBatch <= 0 {
		cfg.CommitBatch = 4
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 150 * time.Millisecond
	}
	rep := &PerfReport{
		Unit:       "keyed ops/sec",
		DurationMS: cfg.Duration.Milliseconds(),
		Seed:       cfg.Seed,
		Batch:      16,
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, wname := range cfg.Workloads {
		for _, mode := range perfModes(cfg.CommitBatch) {
			for _, procs := range cfg.Procs {
				w, err := ByName(wname, Options{})
				if err != nil {
					return nil, err
				}
				runtime.GOMAXPROCS(procs)
				// Per-cell plane: quantiles never bleed across cells.
				sCfg := mode.cfg
				sCfg.Metrics = metrics.NewPlane(procs, 0)
				s := w.NewStore(Config{STM: sCfg, EscrowCounters: mode.escrow})
				res, err := w.RunLocal(s, GenConfig{
					Users:    procs,
					Batch:    rep.Batch,
					Duration: cfg.Duration,
					Seed:     cfg.Seed + uint64(procs),
				})
				if err != nil {
					return nil, fmt.Errorf("txkv: perf cell %s/%s/p%d: %w",
						wname, mode.name, procs, err)
				}
				ps := s.Runtime().Metrics().Snapshot()
				snap, q := ps.Counts(), ps.Commit.Summary()
				cell := PerfCell{
					Workload:    wname,
					Mode:        mode.name,
					GOMAXPROCS:  procs,
					Users:       procs,
					OpsPerSec:   res.OpsPerSec(),
					Ops:         res.Ops,
					Commits:     snap["commits"],
					Aborts:      snap["aborts"],
					Batches:     snap["batches"],
					Folded:      snap["foldedCommits"],
					CommitP50Ns: q.P50,
					CommitP99Ns: q.P99,
				}
				rep.Cells = append(rep.Cells, cell)
			}
		}
	}
	return rep, nil
}
