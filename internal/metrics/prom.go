package metrics

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4), hand-rolled: the
// repo takes no dependencies, and the format is three line shapes
// (# HELP, # TYPE, sample). PromWriter keeps the invariants a scraper
// checks — every sample preceded by its family's TYPE/HELP, labels
// escaped, values finite decimal — and the smoke test in txkv parses
// its own output back to hold the writer to them.

// Label is one name="value" pair on a sample.
type Label struct{ Name, Value string }

// PromWriter accumulates exposition lines; errors are sticky.
type PromWriter struct {
	w   io.Writer
	err error
}

func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Err returns the first write error, if any.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) printf(format string, args ...interface{}) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// Family opens a metric family: one HELP and one TYPE line. typ is
// counter, gauge, summary, histogram or untyped.
func (p *PromWriter) Family(name, typ, help string) {
	p.printf("# HELP %s %s\n", name, escapeHelp(help))
	p.printf("# TYPE %s %s\n", name, typ)
}

func formatLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// Sample writes one float-valued sample line.
func (p *PromWriter) Sample(name string, labels []Label, v float64) {
	p.printf("%s%s %s\n", name, formatLabels(labels), strconv.FormatFloat(v, 'g', -1, 64))
}

// Uint writes one integer-valued sample line.
func (p *PromWriter) Uint(name string, labels []Label, v uint64) {
	p.printf("%s%s %d\n", name, formatLabels(labels), v)
}

// promQuantiles is the quantile ladder exposed on summary families.
var promQuantiles = []struct {
	label string
	q     float64
}{
	{"0.5", 0.50},
	{"0.9", 0.90},
	{"0.99", 0.99},
	{"0.999", 0.999},
}

// summaryProm writes one latency histogram as a Prometheus summary in
// seconds: the quantile ladder plus _sum and _count.
func summaryProm(p *PromWriter, name, help string, h *HistSnapshot) {
	p.Family(name, "summary", help)
	for _, pq := range promQuantiles {
		p.Sample(name, []Label{{"quantile", pq.label}}, h.Quantile(pq.q)/1e9)
	}
	p.Sample(name+"_sum", nil, float64(h.Sum)/1e9)
	p.Uint(name+"_count", nil, h.Count)
}

// WriteProm renders the merged plane in exposition format under the
// given metric-name prefix (e.g. "txstm"). Every abort-reason and
// commit-phase series is emitted even at zero, so dashboards and the
// smoke test can rely on the full label set being present from the
// first scrape.
func (s *PlaneSnapshot) WriteProm(w io.Writer, prefix string) error {
	p := NewPromWriter(w)
	summaryProm(p, prefix+"_attempt_latency_seconds",
		"Wall time of transaction attempts (committed and aborted) of the 1-in-N sampled atomic blocks (see _phase_sample_interval); _count counts samples, not attempts.", &s.Attempt)
	summaryProm(p, prefix+"_commit_latency_seconds",
		"Wall time of the 1-in-N sampled committed atomic blocks, first attempt to commit (see _phase_sample_interval); _count counts samples, txstm_commits_total counts commits.", &s.Commit)
	summaryProm(p, prefix+"_grace_wait_seconds",
		"Grace-period waits spent by requestors on locked words.", &s.Grace)
	summaryProm(p, prefix+"_combiner_drain_seconds",
		"Group-commit combiner rounds, drain to outcome stamps.", &s.Drain)

	name := prefix + "_aborted_attempts_total"
	p.Family(name, "counter", "Aborted attempts and escalation events by taxonomy reason.")
	for r := 0; r < NumAbortReasons; r++ {
		p.Uint(name, []Label{{"reason", AbortReason(r).String()}}, s.Aborts[r])
	}

	name = prefix + "_commit_phase_seconds_total"
	p.Family(name, "counter", "Sampled commit-phase time by phase (multiply by the sample interval to estimate totals).")
	for ph := 0; ph < NumCommitPhases; ph++ {
		p.Sample(name, []Label{{"phase", CommitPhase(ph).String()}}, float64(s.PhaseNs[ph])/1e9)
	}
	name = prefix + "_commit_phase_samples_total"
	p.Family(name, "counter", "Commits that ran the sampled phase timers, by phase.")
	for ph := 0; ph < NumCommitPhases; ph++ {
		p.Uint(name, []Label{{"phase", CommitPhase(ph).String()}}, s.PhaseN[ph])
	}

	name = prefix + "_phase_sample_interval"
	p.Family(name, "gauge", "1-in-N atomic-block sampling interval: one draw per block picks, independently and each 1 in N, the blocks that feed the attempt and commit latency summaries and the blocks that run the commit-phase timers.")
	p.Uint(name, nil, uint64(s.SampleN))
	return p.Err()
}

// CounterProm writes a single-sample counter family — the bridge for
// the PlaneSnapshot.Counts map and ad-hoc gauges.
func CounterProm(w io.Writer, name, typ, help string, v uint64) error {
	p := NewPromWriter(w)
	p.Family(name, typ, help)
	p.Uint(name, nil, v)
	return p.Err()
}

// SnakeCase converts a lowerCamel counter key ("selfAborts") to the
// exposition convention ("self_aborts").
func SnakeCase(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r >= 'A' && r <= 'Z' {
			b.WriteByte('_')
			b.WriteByte(byte(r) + ('a' - 'A'))
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}
