package trace

import (
	"fmt"
	"math"
	"strings"

	"txconflict/internal/dist"
	"txconflict/internal/report"
	"txconflict/internal/scenario"
)

// Profile aggregates a trace into the distributions and summary
// statistics the rest of the repository consumes: committed
// transaction lengths and think times as sample sets (→
// dist.NewEmpirical), plus the runtime-behaviour means a fidelity
// report compares against.
type Profile struct {
	// Scenario is the recorded scenario name (from the header).
	Scenario string
	// Records and Commits count all blocks and committed blocks.
	Records, Commits int
	// Retries, KillsSuffered, KillsIssued are totals over all blocks.
	Retries, KillsSuffered, KillsIssued uint64
	// MeanLength and MeanThink are the means of the committed
	// Lengths/Thinks sample sets.
	MeanLength, MeanThink float64
	// MeanReads and MeanWrites are the mean footprint sizes of
	// committed blocks.
	MeanReads, MeanWrites float64
	// MeanGraceNs and MeanDurNs are per-block means.
	MeanGraceNs, MeanDurNs float64
	// AbortsPerCommit is total retries over total commits.
	AbortsPerCommit float64
	// SpanNs is the recorded wall-clock span; CommitsPerSec the
	// recorded committed-transaction throughput over that span.
	SpanNs        int64
	CommitsPerSec float64
	// Lengths and Thinks are the committed blocks' sampled compute
	// lengths and think times (scenario units), the raw material for
	// empirical samplers.
	Lengths, Thinks []float64
}

// NewProfile aggregates tr. Traces with no committed records still
// profile (runtime stats only); LengthSampler then returns an error.
func NewProfile(tr *Trace) *Profile {
	p := &Profile{Scenario: tr.Scenario, Records: len(tr.Records), SpanNs: tr.SpanNs()}
	var graceSum, durSum float64
	var readSum, writeSum float64
	for i := range tr.Records {
		r := &tr.Records[i]
		p.Retries += uint64(r.Retries)
		p.KillsSuffered += uint64(r.KillsSuffered)
		p.KillsIssued += uint64(r.KillsIssued)
		graceSum += float64(r.GraceNs)
		durSum += float64(r.DurNs)
		if !r.Committed {
			continue
		}
		p.Commits++
		readSum += float64(len(r.Reads))
		writeSum += float64(len(r.Writes))
		p.Lengths = append(p.Lengths, r.Compute)
		p.Thinks = append(p.Thinks, r.Think)
		p.MeanLength += r.Compute
		p.MeanThink += r.Think
	}
	if p.Records > 0 {
		p.MeanGraceNs = graceSum / float64(p.Records)
		p.MeanDurNs = durSum / float64(p.Records)
	}
	if p.Commits > 0 {
		p.MeanLength /= float64(p.Commits)
		p.MeanThink /= float64(p.Commits)
		p.MeanReads = readSum / float64(p.Commits)
		p.MeanWrites = writeSum / float64(p.Commits)
		p.AbortsPerCommit = float64(p.Retries) / float64(p.Commits)
	}
	if p.SpanNs > 0 {
		p.CommitsPerSec = float64(p.Commits) / (float64(p.SpanNs) / 1e9)
	}
	return p
}

// LengthSampler returns the empirical sampler over the committed
// transaction lengths, named name ("" defaults to "trace:<scenario>").
func (p *Profile) LengthSampler(name string) (*dist.Empirical, error) {
	if len(p.Lengths) == 0 {
		return nil, fmt.Errorf("trace: profile of %q has no committed records to sample", p.Scenario)
	}
	if name == "" {
		name = "trace:" + p.Scenario
	}
	return dist.NewEmpirical(name, p.Lengths), nil
}

// ThinkSampler returns the empirical sampler over the committed
// think times.
func (p *Profile) ThinkSampler(name string) (*dist.Empirical, error) {
	if len(p.Thinks) == 0 {
		return nil, fmt.Errorf("trace: profile of %q has no committed records to sample", p.Scenario)
	}
	if name == "" {
		name = "trace:" + p.Scenario + ":think"
	}
	return dist.NewEmpirical(name, p.Thinks), nil
}

// RegisterSamplers adds the profile's length and think distributions
// to the dist.ByName catalog as "trace:<key>" and "trace:<key>:think"
// and returns the two registered names. The builders follow the
// catalog's mean convention: mu > 0 rescales the samples to mean mu,
// mu <= 0 (or a zero-mean trace) replays them raw. Both names are
// checked for collisions up front, so a failure never leaves the
// catalog half-populated.
func (p *Profile) RegisterSamplers(key string) (lengthName, thinkName string, err error) {
	lengthName = "trace:" + strings.ToLower(strings.TrimSpace(key))
	thinkName = lengthName + ":think"
	if len(p.Lengths) == 0 {
		return "", "", fmt.Errorf("trace: profile of %q has no committed records to register", p.Scenario)
	}
	for _, name := range []string{lengthName, thinkName} {
		if dist.Known(name) {
			return "", "", fmt.Errorf("dist: distribution %q already registered", name)
		}
	}
	if err := dist.Register(lengthName, empiricalBuilder(lengthName, p.Lengths)); err != nil {
		return "", "", err
	}
	if err := dist.Register(thinkName, empiricalBuilder(thinkName, p.Thinks)); err != nil {
		return "", "", err
	}
	return lengthName, thinkName, nil
}

// empiricalBuilder adapts a sample set to the catalog's
// mean-parameterized builder convention.
func empiricalBuilder(name string, samples []float64) func(mu float64) dist.Sampler {
	raw := dist.NewEmpirical(name, samples)
	return func(mu float64) dist.Sampler {
		if mu <= 0 || raw.Mean() == 0 {
			return raw
		}
		scale := mu / raw.Mean()
		scaled := make([]float64, len(samples))
		for i, v := range samples {
			scaled[i] = v * scale
		}
		return dist.NewEmpirical(name, scaled)
	}
}

// Table renders the profile as a summary table with a log₂ histogram
// of committed transaction lengths — the CLI output of
// `stmbench -record`.
func (p *Profile) Table() *report.Table {
	t := &report.Table{
		Title:   fmt.Sprintf("trace profile (%s): %d records over %.1f ms", p.Scenario, p.Records, float64(p.SpanNs)/1e6),
		Columns: []string{"metric", "value"},
	}
	t.AddRow("commits", p.Commits)
	t.AddRow("commits/s (recorded)", p.CommitsPerSec)
	t.AddRow("aborts/commit", p.AbortsPerCommit)
	t.AddRow("kills suffered / issued", fmt.Sprintf("%d / %d", p.KillsSuffered, p.KillsIssued))
	t.AddRow("mean length (units)", p.MeanLength)
	t.AddRow("mean think (units)", p.MeanThink)
	t.AddRow("mean footprint r/w", fmt.Sprintf("%.2f / %.2f", p.MeanReads, p.MeanWrites))
	t.AddRow("mean grace wait (ns)", p.MeanGraceNs)
	t.AddRow("mean duration (ns)", p.MeanDurNs)
	for _, b := range p.lengthHistogram() {
		t.AddRow(b.label, b.bar)
	}
	return t
}

// histBucket is one rendered histogram row.
type histBucket struct{ label, bar string }

// lengthHistogram buckets the committed lengths by log₂ and renders
// proportional bars (the profiled length distributions of the
// paper's Section 1, in table form).
func (p *Profile) lengthHistogram() []histBucket {
	if len(p.Lengths) == 0 {
		return nil
	}
	counts := map[int]int{}
	lo, hi := math.MaxInt, math.MinInt
	for _, v := range p.Lengths {
		b := 0
		if v >= 1 {
			b = int(math.Log2(v)) + 1
		}
		counts[b]++
		if b < lo {
			lo = b
		}
		if b > hi {
			hi = b
		}
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	out := make([]histBucket, 0, hi-lo+1)
	for b := lo; b <= hi; b++ {
		c := counts[b]
		label := "len [0,1)"
		if b > 0 {
			label = fmt.Sprintf("len [%.0f,%.0f)", math.Pow(2, float64(b-1)), math.Pow(2, float64(b)))
		}
		bar := strings.Repeat("#", (c*40+max-1)/max)
		out = append(out, histBucket{label, fmt.Sprintf("%-40s %d", bar, c)})
	}
	return out
}

// replayRecords converts the trace's committed records to the
// scenario layer's replay form, scaling compute and think by the
// given factor (1 replays the recorded units raw).
func replayRecords(tr *Trace, scale float64) []scenario.ReplayRecord {
	if scale <= 0 {
		scale = 1
	}
	recs := make([]scenario.ReplayRecord, 0, len(tr.Records))
	for i := range tr.Records {
		r := &tr.Records[i]
		if !r.Committed {
			continue
		}
		recs = append(recs, scenario.ReplayRecord{
			Reads:   r.Reads,
			Writes:  r.Writes,
			Compute: r.Compute * scale,
			Think:   r.Think * scale,
		})
	}
	return recs
}

// CycleScale returns the trace's busy-work-unit → simulated-cycle
// conversion factor: the calibrated Header.UnitNs when the capture
// stamped one (at the simulator's 1 GHz convention, one wall
// nanosecond is one cycle), and 1 for pre-calibration files.
func (tr *Trace) CycleScale() float64 {
	if tr.UnitNs > 0 {
		return tr.UnitNs
	}
	return 1
}

// ReplayScenario builds a scenario.NewReplay over the trace's
// committed records: the identical footprints re-issued as
// register-machine programs, runnable on the HTM simulator (via
// internal/workload) and the STM runtime alike. Compute and think
// replay in the recorded units — right for the STM backend, whose
// units are busy-work iterations; the simulator wants
// ReplayScenarioCycles.
func ReplayScenario(tr *Trace, opt scenario.Options) (*scenario.Scenario, error) {
	return replayScenario(tr, opt, 1)
}

// ReplayScenarioCycles is ReplayScenario with the recorded compute
// and think lengths converted to simulated cycles via the trace's
// calibration header (CycleScale) — the HTM-backend form, faithful
// to the recording machine's real per-unit cost.
func ReplayScenarioCycles(tr *Trace, opt scenario.Options) (*scenario.Scenario, error) {
	return replayScenario(tr, opt, tr.CycleScale())
}

func replayScenario(tr *Trace, opt scenario.Options, scale float64) (*scenario.Scenario, error) {
	recs := replayRecords(tr, scale)
	if len(recs) == 0 {
		return nil, fmt.Errorf("trace: no committed records to replay (scenario %q, %d records)",
			tr.Scenario, len(tr.Records))
	}
	name := "replay:" + tr.Scenario
	return scenario.NewReplay(name,
		fmt.Sprintf("replay of a recorded %s run (%d committed transactions)", tr.Scenario, len(recs)),
		recs, opt)
}

// RegisterScenario adds the trace's replay to the scenario.ByName
// catalog under the given name, making it selectable wherever a
// registry scenario is (-scenario flags, the parity suite, the
// figure harnesses). Units replay raw (the STM-backend convention);
// ReplayScenarioCycles is the calibrated simulator form.
func RegisterScenario(name string, tr *Trace) error {
	recs := replayRecords(tr, 1)
	if len(recs) == 0 {
		return fmt.Errorf("trace: no committed records to replay (scenario %q, %d records)",
			tr.Scenario, len(tr.Records))
	}
	desc := fmt.Sprintf("replay of a recorded %s run (%d committed transactions)", tr.Scenario, len(recs))
	return scenario.Register(name, desc, func(opt scenario.Options) *scenario.Scenario {
		sc, err := scenario.NewReplay(name, desc, recs, opt)
		if err != nil {
			panic(err) // unreachable: recs validated non-empty above
		}
		return sc
	})
}
