package experiments

import (
	"fmt"

	"txconflict/internal/core"
	"txconflict/internal/htm"
	"txconflict/internal/report"
	"txconflict/internal/scenario"
	"txconflict/internal/strategy"
	"txconflict/internal/workload"
)

// Ablations runs the design-choice ablations called out in DESIGN.md
// §5 on one benchmark at one thread count, reporting throughput and
// abort behaviour per variant:
//
//   - chain-length estimate: directory queue length vs fixed k=2;
//   - abort cost B: elapsed+cleanup (paper footnote 1) vs fixed;
//   - Corollary 2 backoff: off vs ×2;
//   - policy: requestor wins vs requestor aborts vs Section 9 hybrid;
//   - topology: uniform network vs 4x4 mesh.
func Ablations(bench string, threads int, cfg Fig3Config) (*report.Table, error) {
	type variant struct {
		name   string
		adjust func(p *htm.Params)
	}
	variants := []variant{
		{"baseline RW + RRW (queue k, B=elapsed+cleanup)", func(p *htm.Params) {}},
		{"fixed k=2", func(p *htm.Params) { p.FixedChainK = 2 }},
		{"fixed B=500", func(p *htm.Params) { p.FixedB = 500 }},
		{"Cor2 backoff x2", func(p *htm.Params) {
			p.BackoffFactor = 2
			p.MaxBackoffB = 1e6
		}},
		{"policy RA + RRA", func(p *htm.Params) {
			p.Policy = core.RequestorAborts
			p.Strategy = strategy.ExpRA{}
		}},
		{"hybrid policy (Sec 9)", func(p *htm.Params) {
			p.Hybrid = true
			p.Strategy = strategy.Hybrid{}
		}},
		{"mean-profiled strategy", func(p *htm.Params) {
			p.UseMeanProfile = true
			p.Strategy = strategy.MeanRW{}
		}},
		{"4x4 mesh topology", func(p *htm.Params) { p.MeshDim = 4 }},
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Ablations (%s, %d threads)", bench, threads),
		Columns: []string{"variant", "ops/s", "aborts/commit", "conflicts", "graceCommits"},
	}
	for _, v := range variants {
		w, err := workload.ByName(bench, scenario.Options{})
		if err != nil {
			return nil, err
		}
		p := htm.DefaultParams(threads)
		p.Strategy = strategy.UniformRW{}
		p.Seed = cfg.Seed
		v.adjust(&p)
		m := htm.NewMachine(p, w)
		met := m.Run(cfg.Cycles)
		t.AddRow(v.name, met.OpsPerSecond(), met.AbortRate(), met.Conflicts, met.GraceCommits)
	}
	return t, nil
}
