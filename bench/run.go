package main

import (
	"errors"
	"fmt"
	"time"

	"txconflict/internal/metrics"
)

// options shapes one run. main derives it from the flags; the smoke
// test shrinks every duration.
type options struct {
	seed uint64
	// measure is the timed part of a run, cut into segments of segDur
	// each (kv) or of one pass over the cells (sim).
	measure, segDur time.Duration
	warmup          int // requests through the full path before timing
	// setups is the least number of set-up repetitions, setupBudget the
	// time cheap set-ups keep repeating for; setup_s is the median.
	setups      int
	setupBudget time.Duration
	// simCycles is the simulated window of one cell, simWarm the
	// shorter window each cell runs once during set-up.
	simCycles, simWarm uint64
	trace              bool
	rungDur            time.Duration // replay time per ladder rung
	outDir             string
}

// measured is one metric of one workload: the reported value and,
// for end-to-end metrics, the raw per-segment values behind it.
type measured struct {
	Value    float64   `json:"value"`
	Unit     string    `json:"unit"`
	Segments []float64 `json:"segments,omitempty"`
}

type workloadResult struct {
	Name        string              `json:"name"`
	Fingerprint string              `json:"fingerprint"`
	Correct     bool                `json:"correct"`
	Attempted   uint64              `json:"attempted"`
	Failed      uint64              `json:"failed"`
	FailedRatio float64             `json:"failed_ratio"`
	Error       string              `json:"error,omitempty"`
	WallS       float64             `json:"wall_s"`
	EndToEnd    map[string]measured `json:"end_to_end"`
	PerLayer    map[string]measured `json:"per_layer"`
	// SimCounts are sim-hot-16's exact-repeat statistics for one
	// segment; -compare requires them identical between two files.
	SimCounts *simCounts `json:"sim_counts,omitempty"`
}

// note keeps the first error of a run; any error makes it incorrect.
func (r *workloadResult) note(err error) {
	if err != nil && r.Error == "" {
		r.Error = err.Error()
	}
}

func runWorkload(sp spec, opt options) workloadResult {
	t0 := time.Now()
	var res workloadResult
	if sp.kind == kindSim {
		res = runSim(sp, opt)
	} else {
		res = runKV(sp, opt)
	}
	res.Name = sp.name
	res.WallS = time.Since(t0).Seconds()
	res.Correct = res.Failed == 0 && res.Error == "" && res.Attempted > 0
	if res.Attempted > 0 {
		res.FailedRatio = float64(res.Failed) / float64(res.Attempted)
	}
	return res
}

// perOp is n per verified op of a segment.
func perOp(n, ops uint64) float64 {
	if ops == 0 {
		return 0
	}
	return float64(n) / float64(ops)
}

// column is f over every segment.
func column(segs []segment, f func(segment) float64) []float64 {
	out := make([]float64, len(segs))
	for i, s := range segs {
		out[i] = f(s)
	}
	return out
}

// endToEndOf reduces the segments to the end-to-end metrics: each is
// the median over segments, so a disturbed stretch shorter than half
// the run cannot move it. override replaces the median where a
// workload kind has a steadier estimate of the same quantity; the
// per-segment values are stored beside it either way.
func endToEndOf(segs []segment, setups []float64, override map[string]float64) map[string]measured {
	raw := map[string][]float64{
		"req_p50_us":    column(segs, func(s segment) float64 { return s.lat.p50 }),
		"req_p90_us":    column(segs, func(s segment) float64 { return s.lat.p90 }),
		"ops_per_s":     column(segs, func(s segment) float64 { return float64(s.ops) / s.secs }),
		"allocs_per_op": column(segs, func(s segment) float64 { return perOp(s.mallocs, s.ops) }),
		"setup_s":       setups,
	}
	out := map[string]measured{}
	for _, d := range endToEnd {
		m := measured{Value: median(raw[d.Name]), Unit: d.Unit, Segments: raw[d.Name]}
		if v, ok := override[d.Name]; ok {
			m.Value = v
		}
		out[d.Name] = m
	}
	return out
}

// layersOf attaches units and fills 0 for every per-layer metric the
// workload does not have, so each workload reports the full ladder.
func layersOf(vals map[string]float64) map[string]measured {
	out := map[string]measured{}
	for _, d := range perLayer {
		out[d.Name] = measured{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

// clientLayers are the tail percentiles the end-to-end table leaves
// out because they do not repeat within a tenth on a shared box.
func clientLayers(l map[string]float64, segs []segment) {
	var reqs, maxUs float64
	var p99, p999 []float64
	for _, s := range segs {
		reqs += float64(s.lat.n)
		p99 = append(p99, s.lat.p99)
		p999 = append(p999, s.lat.p999)
		maxUs = max(maxUs, s.lat.max)
	}
	l["client.requests"] = reqs
	l["client.req_p99_us"] = median(p99)
	l["client.req_p999_us"] = median(p999)
	l["client.req_max_us"] = maxUs
}

func processLayers(l map[string]float64, p0, p1 procSample, ops uint64) {
	if ops > 0 {
		l["process.cpu_us_per_op"] = float64((p1.cpu - p0.cpu).Microseconds()) / float64(ops)
		l["process.bytes_per_op"] = float64(p1.bytes-p0.bytes) / float64(ops)
	}
	l["process.gc_cycles"] = float64(p1.gcCycles - p0.gcCycles)
	l["process.gc_pause_ms"] = float64(p1.pauseNs-p0.pauseNs) / 1e6
	l["process.heap_inuse_mb"] = float64(p1.heapInuse) / (1 << 20)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// stmLayers reads the runtime's own counters from outside, as deltas
// over the timed window.
func stmLayers(l map[string]float64, s0, s1 map[string]uint64, p0, p1 metrics.PlaneSnapshot, kEst float64) {
	d := func(k string) uint64 { return s1[k] - s0[k] }
	for name, key := range map[string]string{
		"stm.commits": "commits", "stm.aborts": "aborts", "stm.kills": "kills",
		"stm.self_aborts": "selfAborts", "stm.grace_waits": "graceWaits",
		"stm.irrevocable": "irrevocable", "stm.extensions": "extensions",
		"stm.batches": "batches", "stm.batch_commits": "batchCommits",
		"stm.batch_fails": "batchFails", "stm.folded_commits": "foldedCommits",
		"stm.folded_words": "foldedWords",
	} {
		l[name] = float64(d(key))
	}
	l["stm.commit_per_attempt"] = ratio(d("commits"), d("commits")+d("aborts"))
	l["stm.members_per_batch"] = ratio(d("batchCommits"), d("batches"))
	l["stm.k_estimate"] = kEst

	att, com := p1.Attempt.Sub(p0.Attempt), p1.Commit.Sub(p0.Commit)
	gr, dr := p1.Grace.Sub(p0.Grace), p1.Drain.Sub(p0.Drain)
	l["stm.attempt_p50_ns"], l["stm.attempt_p99_ns"] = att.Quantile(0.5), att.Quantile(0.99)
	l["stm.commit_p50_ns"], l["stm.commit_p99_ns"] = com.Quantile(0.5), com.Quantile(0.99)
	l["stm.grace_p50_ns"], l["stm.grace_p99_ns"] = gr.Quantile(0.5), gr.Quantile(0.99)
	l["stm.grace_total_ms"] = float64(gr.Sum) / 1e6
	l["stm.drain_p50_ns"] = dr.Quantile(0.5)
	for ph, name := range map[metrics.CommitPhase]string{
		metrics.PhaseValidate: "stm.phase_validate_ns", metrics.PhaseLock: "stm.phase_lock_ns",
		metrics.PhaseWriteBack: "stm.phase_writeback_ns", metrics.PhaseClock: "stm.phase_clock_ns",
	} {
		l[name] = ratio(p1.PhaseNs[ph]-p0.PhaseNs[ph], p1.PhaseN[ph]-p0.PhaseN[ph])
	}
	for r, name := range map[metrics.AbortReason]string{
		metrics.AbortKilled: "stm.abort_killed", metrics.AbortValidation: "stm.abort_validation",
		metrics.AbortLockTimeout: "stm.abort_lock_timeout", metrics.AbortBatchAdmission: "stm.abort_batch_admission",
		metrics.AbortMaxRetries: "stm.abort_max_retries",
	} {
		l[name] = float64(p1.Aborts[r] - p0.Aborts[r])
	}
}

// maxSetups bounds the set-up repetitions of a cheap workload.
const maxSetups = 25

// timedSetups builds the workload repeatedly, timing each build:
// setup_s is the median. A set-up of a few milliseconds is at the
// mercy of one GC cycle, so past the first n it repeats until the
// set-ups have had setupBudget in total (or maxSetups). The last
// instance is kept; earlier ones are torn down (and checked) outside
// the timer.
func timedSetups[T any](n int, budget time.Duration, build func() (T, error), discard func(T) error) (last T, secs []float64, err error) {
	var spent time.Duration
	for i := 0; i < n || (spent < budget && i < maxSetups); i++ {
		if i > 0 {
			if err := discard(last); err != nil {
				return last, secs, err
			}
		}
		t0 := time.Now()
		if last, err = build(); err != nil {
			return last, secs, err
		}
		dt := time.Since(t0)
		spent += dt
		secs = append(secs, dt.Seconds())
	}
	return last, secs, nil
}

func runKV(sp spec, opt options) (res workloadResult) {
	st, setups, err := timedSetups(opt.setups, opt.setupBudget,
		func() (*kvStack, error) { return newKVStack(sp, opt.seed, opt.warmup, nil) },
		(*kvStack).close)
	if err != nil {
		res.note(err)
		return res
	}
	res.Fingerprint = fpString(st.fp)
	rt := st.store.Runtime()

	from := st.issued()
	a0, f0, e0, _ := st.totals()
	s0, pl0, p0 := rt.Stats.Snapshot(), rt.Metrics().Snapshot(), sampleProc()
	segs := st.measure(nil, opt)
	s1, pl1, p1 := rt.Stats.Snapshot(), rt.Metrics().Snapshot(), sampleProc()
	a1, f1, e1, _ := st.totals()

	res.EndToEnd = endToEndOf(segs, setups, nil)
	l := map[string]float64{}
	clientLayers(l, segs)
	processLayers(l, p0, p1, (a1-a0)-(f1-f0))
	stmLayers(l, s0, s1, pl0, pl1, rt.KEstimate())
	l["txkv.op_err_ratio"] = ratio(e1-e0, a1-a0)
	for kind, n := range st.opMix(from) {
		l["txkv.ops_"+kind] = float64(n)
	}
	l["http.conns_new"] = float64(st.connsNew.Load())
	res.Attempted, res.Failed, _, _ = st.totals()
	if err := st.close(); err != nil {
		// A broken invariant with no failed op still fails the run.
		res.Failed = max(res.Failed, 1)
		res.note(err)
	}
	l["txkv.keys_live"] = float64(st.store.Len())

	if opt.trace {
		res.note(traceKV(sp, opt, res.EndToEnd["req_p50_us"].Value, l))
	}
	res.PerLayer = layersOf(l)
	return res
}

// measure runs segments until the measuring time is used up.
func (k *kvStack) measure(tr *tracer, opt options) []segment {
	var segs []segment
	for start := time.Now(); len(segs) < 2 || time.Since(start) < opt.measure; {
		segs = append(segs, k.segment(tr, opt.segDur))
	}
	return segs
}

// traceKV is the traced run: the same workload with spans recorded
// around each request (and around the server's handler on sock
// workloads), then the replayed rungs, then the ladder. reqP50 is the
// untraced run's median request, which the ladder must add up to.
func traceKV(sp spec, opt options, reqP50 float64, l map[string]float64) error {
	tr := newTracer()
	st, err := newKVStack(sp, opt.seed, opt.warmup, tr)
	if err != nil {
		return err
	}
	if traced := st.measure(tr, opt); reqP50 > 0 {
		l["client.trace_overhead"] = median(column(traced, func(s segment) float64 { return s.lat.p50 })) / reqP50
	}
	if h := st.handler; h != nil && len(h.durs) > 0 {
		n := float64(len(h.durs))
		l["http.req_bytes"] = float64(h.reqBytes) / n
		l["http.resp_bytes"] = float64(h.respBytes) / n
		l["http.handler_p50_us"] = summarize(h.durs).p50
	}
	if err := st.close(); err != nil {
		return err
	}
	if err := tr.write(opt.outDir, sp.name); err != nil {
		return err
	}

	rg, err := replayRungs(sp, opt.seed, opt.rungDur)
	if err != nil {
		return err
	}
	l["stm.atomic_empty_ns"], l["stm.atomic_rw1_ns"] = atomicMicro(sp.stmConfig(), opt.rungDur/2)
	l["txkv.apply_us"] = rg.apply
	if sp.kind == kindSock {
		l["client.codec_us"] = rg.codec
		l["txkv.codec_self_us"] = rg.serveHTTP - rg.exec
		l["txkv.dispatch_self_us"] = rg.handoff
		// ApplyBatch as the pool runs it: Exec less the hand-off.
		l["txkv.apply_us"] = rg.exec - rg.handoff
		l["http.self_p50_us"] = reqP50 - l["http.handler_p50_us"] - rg.codec
	}
	sum := l["http.self_p50_us"] + l["client.codec_us"] + l["txkv.codec_self_us"] + l["txkv.dispatch_self_us"] + l["txkv.apply_us"]
	l["ladder.residual_us"] = reqP50 - sum
	return nil
}

func runSim(sp spec, opt options) (res workloadResult) {
	sr, setups, err := timedSetups(opt.setups, opt.setupBudget,
		func() (*simRunner, error) { return newSimRunner(opt.seed, opt.simCycles, opt.simWarm) },
		func(*simRunner) error { return nil })
	if err != nil {
		res.note(err)
		return res
	}
	res.Fingerprint = fpString(sr.in.fp)

	// Fixed work per pass over the cells, so the sim runs as many
	// whole passes as fit in the measuring time the kv workloads get.
	var segs []segment
	var times []cellTimes
	var ref simCounts
	p0, start := sampleProc(), time.Now()
	for len(segs) < 2 || time.Since(start) < opt.measure {
		seg, cnt, ct, failed, err := sr.segment(nil)
		if len(segs) == 0 {
			ref = cnt
		} else if cnt != ref {
			failed++
			err = errors.Join(err, fmt.Errorf("pass %d simulated counts %+v differ from pass 0's %+v", len(segs), cnt, ref))
		}
		res.Failed += failed
		res.note(err)
		res.Attempted += cnt.Commits
		segs = append(segs, seg)
		times = append(times, ct...)
	}
	p1 := sampleProc()
	res.SimCounts = &ref
	res.EndToEnd = endToEndOf(segs, setups, fastestPasses(times, len(sr.cells)))

	l := map[string]float64{}
	clientLayers(l, segs)
	processLayers(l, p0, p1, res.Attempted)
	var runNs float64
	var build, run, drain, check []float64
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	for _, ct := range times {
		runNs += float64(ct.run.Nanoseconds())
		build, run = append(build, us(ct.build)), append(run, us(ct.run))
		drain, check = append(drain, us(ct.drain)), append(check, us(ct.check))
	}
	l["htm.build_us"], l["htm.run_us"] = median(build), median(run)
	l["htm.drain_us"], l["htm.check_us"] = median(drain), median(check)
	l["sim.events_fired"] = float64(ref.Events)
	l["sim.ns_per_event"] = runNs / float64(ref.Events) / float64(len(segs))
	l["htm.commits"], l["htm.aborts"], l["htm.conflicts"] = float64(ref.Commits), float64(ref.Aborts), float64(ref.Conflicts)
	l["htm.grace_commits"], l["htm.capacity_aborts"] = float64(ref.GraceCommits), float64(ref.CapAborts)
	l["htm.nack_aborts"], l["htm.msgs_total"] = float64(ref.NackAbts), float64(ref.Msgs)
	l["htm.commits_per_mcycle"] = ratio(ref.Commits, ref.Cycles) * 1e6

	if opt.trace {
		tr := newTracer()
		var p50s []float64
		for range segs {
			seg, _, _, _, _ := sr.segment(tr)
			p50s = append(p50s, seg.lat.p50)
		}
		l["client.trace_overhead"] = median(p50s) / median(column(segs, func(s segment) float64 { return s.lat.p50 }))
		res.note(tr.write(opt.outDir, sp.name))
	}
	res.PerLayer = layersOf(l)
	return res
}
