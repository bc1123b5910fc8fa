// Command txkvd serves the transactional key-value store
// (internal/txkv) over HTTP — the serving front-end that turns the STM
// word arena into an end-to-end keyed system: each batch request runs
// on its own goroutine under one of -workers stm worker identities, so
// at most that many batches run at once.
//
// Usage:
//
//	txkvd                                    # serve on -addr
//	txkvd -mode lazy -batch 4 -workers 8     # lazy group commit, 8 concurrent batches
//	txkvd -workload hotspot-counter -batch 4 -fold  # escrow counters
//	txkvd -workload list                     # list keyed workloads
//
// Endpoints: POST /v1/batch, GET /v1/stats, GET|POST /v1/policy,
// GET /v1/check, GET /metrics (Prometheus text exposition),
// GET /healthz, and with -pprof the net/http/pprof suite under
// /debug/pprof/.
//
// txkvd only serves. Recorded throughput and latency numbers come from
// `bash bench/run.sh` (see bench/README.md), which drives this same
// store and server over a real socket.
package main

import (
	"flag"
	"fmt"
	"net/http"
	httppprof "net/http/pprof"
	"os"

	"txconflict/internal/cliutil"
	"txconflict/internal/metrics"
	"txconflict/internal/stm"
	"txconflict/internal/txkv"
)

func main() {
	var (
		addr     = flag.String("addr", ":7070", "listen address")
		capacity = flag.Int("capacity", 0, "store bucket count (0 = sized for -workload)")
		workers  = flag.Int("workers", 4, "concurrent batches, one stm worker identity each")
		mode     = flag.String("mode", "eager", "locking mode: eager or lazy")
		batch    = flag.Int("batch", 0, "lazy group-commit batch bound (0 = unbatched; > 0 implies -mode lazy)")
		fold     = flag.Bool("fold", false, "escrow-counter mode: key-classed index + commutative delta folding in the combiner (requires -batch > 0)")
		workload = flag.String("workload", "", "keyed workload from internal/txkv (or 'list'); sizes the served store ('' = readmostly)")
		seed     = flag.Uint64("seed", 1, "random seed")
		pprofOn  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the serve mux (exposes goroutine/heap/CPU profiles — keep off on untrusted networks)")
		msample  = flag.Int("metrics-sample", metrics.DefaultSampleN, "1-in-N atomic-block sampling interval (rounded up to a power of two): 1 block in N feeds the attempt and commit latency summaries and, drawn independently, 1 in N runs the commit-phase timers; counts are exact")
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
	if err := cliutil.CheckPositive("workers", *workers); err != nil {
		cliutil.Fatal("txkvd", err)
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

	cfg := stm.DefaultConfig()
	// The combiner only exists in lazy mode.
	cfg.Lazy = *mode == "lazy" || *batch > 0
	cfg.CommitBatch = *batch
	cfg.FoldCommutative = *fold
	// The metrics plane feeds /metrics and /v1/stats, sharded per worker
	// identity; -metrics-sample paces the latency samples.
	cfg.Metrics = metrics.NewPlane(*workers, *msample)

	// The served store needs a concrete workload to size it; default
	// to the read-dominated shape.
	wname := *workload
	if wname == "" {
		wname = "readmostly"
	}
	w, err := txkv.ByName(wname, txkv.Options{})
	if err != nil {
		cliutil.Fatal("txkvd", err)
	}
	serve(w, *addr, *capacity, *workers, *seed, cfg, *fold, *pprofOn)
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
