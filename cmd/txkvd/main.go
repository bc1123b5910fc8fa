// Command txkvd serves the transactional key-value store
// (internal/txkv) over HTTP and drives it with the closed-loop load
// generator — the serving front-end that turns the STM word arena
// into an end-to-end keyed system: batch requests execute on a fixed
// pool of transaction workers, one stm.AtomicWorker identity per pool
// worker.
//
// Usage:
//
//	txkvd                                    # serve on -addr
//	txkvd -mode lazy -batch 4 -workers 8     # lazy group-commit pool
//	txkvd -workload list                     # list keyed workloads
//	txkvd -bench -workload hotspot-counter   # in-process closed loop
//	txkvd -bench -record run.btrace          # capture the run's transaction trace
//	txkvd -load http://127.0.0.1:7070 -users 8 -workload document
//
// Endpoints: POST /v1/batch, GET /v1/stats, GET|POST /v1/policy,
// GET /v1/check, GET /metrics (Prometheus text exposition),
// GET /healthz, and with -pprof the net/http/pprof suite under
// /debug/pprof/.
//
// Recorded throughput and latency numbers come from `bash bench/run.sh`
// (see bench/README.md), which drives this same store and server.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"time"

	"txconflict/internal/cliutil"
	"txconflict/internal/dist"
	"txconflict/internal/metrics"
	"txconflict/internal/rng"
	"txconflict/internal/scenario"
	"txconflict/internal/stm"
	"txconflict/internal/trace"
	"txconflict/internal/txkv"
)

func main() {
	var (
		addr     = flag.String("addr", ":7070", "listen address (serve mode)")
		capacity = flag.Int("capacity", 0, "store bucket count (0 = sized for -workload, else 2048)")
		workers  = flag.Int("workers", 4, "transaction worker pool size (one stm.AtomicWorker each)")
		mode     = flag.String("mode", "eager", "locking mode: eager or lazy")
		batch    = flag.Int("batch", 0, "lazy group-commit batch bound (0 = unbatched; > 0 implies -mode lazy)")
		fold     = flag.Bool("fold", false, "escrow-counter mode: key-classed index + commutative delta folding in the combiner (requires -batch > 0)")
		workload = flag.String("workload", "", "keyed workload from internal/txkv (or 'list'); drives -bench/-load and sizes the served store")
		distName = flag.String("dist", "", "override the workload's key-rank sampler (see internal/dist; '' = workload zipf default)")
		mu       = flag.Float64("mu", 0, "mean of the -dist override, in key ranks (0 = half the keyspace)")
		users    = flag.Uint("users", 4, "closed-loop users (-bench/-load)")
		bsize    = flag.Int("batchsize", 16, "ops per batch request (-bench/-load)")
		dur      = flag.Duration("duration", 300*time.Millisecond, "load run duration (-bench/-load)")
		seed     = flag.Uint64("seed", 1, "random seed")
		load     = flag.String("load", "", "drive a running txkvd at this base URL instead of serving")
		bench    = flag.Bool("bench", false, "run the workload closed-loop against an in-process store and exit")
		pprofOn  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the serve mux (serve mode; exposes goroutine/heap/CPU profiles — keep off on untrusted networks)")
		msample  = flag.Int("metrics-sample", metrics.DefaultSampleN, "1-in-N sampling interval for the commit-phase timers (rounded up to a power of two)")
		record   = flag.String("record", "", "with -bench: record the run's transaction trace to this file (.btrace = binary container; see internal/trace)")
	)
	flag.Parse()

	if *workload == "list" {
		for _, line := range txkv.Describe() {
			fmt.Println(line)
		}
		return
	}
	if *workload != "" {
		if err := cliutil.CheckName("workload", *workload, txkv.Names()); err != nil {
			cliutil.Fatal("txkvd", err)
		}
	}
	if *mode != "eager" && *mode != "lazy" {
		cliutil.Fatal("txkvd", fmt.Errorf("unknown mode %q; modes: eager, lazy", *mode))
	}
	for _, c := range []struct {
		name string
		v    int
	}{{"workers", *workers}, {"users", int(*users)}, {"batchsize", *bsize}} {
		if err := cliutil.CheckPositive(c.name, c.v); err != nil {
			cliutil.Fatal("txkvd", err)
		}
	}
	for _, c := range []struct {
		name string
		v    int
	}{{"batch", *batch}, {"capacity", *capacity}} {
		if err := cliutil.CheckNonNegative(c.name, c.v); err != nil {
			cliutil.Fatal("txkvd", err)
		}
	}
	// Folding only exists inside the group-commit combiner; without a
	// batch bound the escrow store would never fold anything.
	if err := cliutil.CheckRequires("fold", *fold, *batch > 0, "-batch > 0 (folding happens in the group-commit combiner)"); err != nil {
		cliutil.Fatal("txkvd", err)
	}
	if err := cliutil.CheckPositive("metrics-sample", *msample); err != nil {
		cliutil.Fatal("txkvd", err)
	}
	// The pprof mux only exists in serve mode; in the one-shot modes
	// the flag would silently do nothing.
	serving := !*bench && *load == ""
	if err := cliutil.CheckRequires("pprof", *pprofOn, serving, "serve mode (-pprof mounts on the HTTP mux)"); err != nil {
		cliutil.Fatal("txkvd", err)
	}
	if err := cliutil.CheckRequires("record", *record != "", *bench, "-bench (the recorder drains when the in-process run stops)"); err != nil {
		cliutil.Fatal("txkvd", err)
	}

	cfg := stm.DefaultConfig()
	// The combiner only exists in lazy mode.
	cfg.Lazy = *mode == "lazy" || *batch > 0
	cfg.CommitBatch = *batch
	cfg.FoldCommutative = *fold
	// The metrics plane feeds /metrics and /v1/stats; -metrics-sample
	// paces the commit-phase timers.
	// Sharded per worker — size for whichever pool identity (serve
	// workers or bench users) is larger.
	planeWorkers := *workers
	if *bench && int(*users) > planeWorkers {
		planeWorkers = int(*users)
	}
	cfg.Metrics = metrics.NewPlane(planeWorkers, *msample)

	// Everything below needs a concrete workload; default to the
	// read-dominated shape for serving and ad-hoc runs.
	wname := *workload
	if wname == "" {
		wname = "readmostly"
	}
	opt := txkv.Options{}
	if *distName != "" {
		w0, err := txkv.ByName(wname, txkv.Options{})
		if err != nil {
			cliutil.Fatal("txkvd", err)
		}
		m := *mu
		if m <= 0 {
			m = float64(w0.Keys()) / 2
		}
		smp, err := dist.ByName(*distName, m)
		if err != nil {
			// The error already carries the sorted registered names.
			cliutil.Fatal("txkvd", err)
		}
		opt.KeyDist = smp
	}
	w, err := txkv.ByName(wname, opt)
	if err != nil {
		cliutil.Fatal("txkvd", err)
	}

	g := txkv.GenConfig{
		Users:    int(*users),
		Batch:    *bsize,
		Duration: *dur,
		Seed:     *seed,
	}

	switch {
	case *bench:
		var rec *trace.Recorder
		if *record != "" {
			rec = trace.NewRecorder("txkv:"+w.Name(), planeWorkers, cfg.String())
			rec.SetUnitNs(scenario.CalibrateUnitNs())
			cfg.Trace = rec
		}
		s := w.NewStore(txkv.Config{Capacity: *capacity, EscrowCounters: *fold, STM: cfg})
		res, err := w.RunLocal(s, g)
		if err != nil {
			fmt.Fprintln(os.Stderr, "txkvd:", err)
			os.Exit(1)
		}
		if rec != nil {
			saveRecording(rec, *record)
		}
		snap := s.Runtime().Stats.Snapshot()
		fmt.Printf("%s: %.0f ops/sec (%d ops, %d users, %d commits, %d aborts, config %s)\n",
			w.Name(), res.OpsPerSec(), res.Ops, g.Users, snap["commits"], snap["aborts"], cfg)
	case *load != "":
		runRemote(w, *load, g)
	default:
		serve(w, *addr, *capacity, *workers, *seed, cfg, *fold, *pprofOn)
	}
}

// saveRecording drains the bench recorder into the trace file at
// path through the streaming writer (format by extension), after the
// load generator's users have stopped.
func saveRecording(rec *trace.Recorder, path string) {
	w, err := trace.Create(path, rec.Header())
	if err != nil {
		fmt.Fprintln(os.Stderr, "txkvd:", err)
		os.Exit(1)
	}
	n, err := rec.WriteTo(w)
	if err == nil {
		err = w.Close()
	} else {
		w.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "txkvd:", err)
		os.Exit(1)
	}
	fmt.Printf("recorded %d transactions to %s\n", n, path)
}

// serve runs the HTTP front-end until the process is killed. The
// store is sized for the selected workload unless -capacity is set.
// With -pprof, net/http/pprof mounts under /debug/pprof/ on the same mux
// — guarded behind the flag because the profile endpoints leak
// goroutine stacks and heap contents to anyone who can reach them.
func serve(w *txkv.Workload, addr string, capacity, workers int, seed uint64, cfg stm.Config, escrow, pprofOn bool) {
	s := w.NewStore(txkv.Config{Capacity: capacity, EscrowCounters: escrow, STM: cfg})
	sv := txkv.NewServer(s, workers, seed)
	defer sv.Close()
	mux := http.NewServeMux()
	mux.Handle("/", sv)
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	}
	fmt.Printf("txkvd: serving on %s (workload %s, capacity %d, %d workers, config %s, pprof %v)\n",
		addr, w.Name(), w.Capacity(), workers, cfg, pprofOn)
	if err := http.ListenAndServe(addr, mux); err != nil {
		fmt.Fprintln(os.Stderr, "txkvd:", err)
		os.Exit(1)
	}
}

// runRemote drives a running txkvd over HTTP with the closed-loop
// generator, then asks the server to verify its structural invariants
// (meaningful only once traffic has stopped — ours just did).
func runRemote(w *txkv.Workload, base string, g txkv.GenConfig) {
	res, err := w.Run(func(int, *rng.Rand) txkv.Client {
		return &txkv.HTTPClient{Base: base}
	}, g)
	if err != nil {
		fmt.Fprintln(os.Stderr, "txkvd:", err)
		os.Exit(1)
	}
	fmt.Printf("%s @ %s: %.0f ops/sec (%d ops, %d users)\n",
		w.Name(), base, res.OpsPerSec(), res.Ops, g.Users)
	resp, err := http.Get(base + "/v1/check")
	if err != nil {
		fmt.Fprintln(os.Stderr, "txkvd:", err)
		os.Exit(1)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		fmt.Fprintf(os.Stderr, "txkvd: server invariant check failed: %s", msg)
		os.Exit(1)
	}
	fmt.Println("server invariants ok")
}
