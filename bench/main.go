// Command bench is the one benchmark for the whole stack: a request
// crosses a real loopback socket into txkv.Server and back
// (sock-*), runs in-process against the store (local-*), or is one
// simulated Figure 3 cell (sim-hot-16). It prints every end-to-end
// metric by name and unit for every workload, verifies the outputs,
// and writes one JSON result file; -trace 1 adds the per-layer ladder
// and span files. See README.md for the tables.
//
//	go run .                              # all six workloads, 30 s each
//	go run . -trace 1                     # per-layer metrics, ladder, out/trace-*.json
//	go run . -workload local-hot-2        # one workload; last line is the driver's JSON
//	go run . -compare out/a.json out/b.json
//
// Run from this directory (run.sh does, for the driver).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// resultFile is what a run leaves behind: the metrics plus enough
// provenance to tell whether two files measured the same inputs on
// the same machine.
type resultFile struct {
	Seed       uint64           `json:"seed"`
	Commit     string           `json:"commit"`
	GoVersion  string           `json:"go_version"`
	NProc      int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	MeasureS   float64          `json:"measure_s"`
	SegmentS   float64          `json:"segment_s"`
	Traced     bool             `json:"traced"`
	Workloads  []workloadResult `json:"workloads"`
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (default: all); its result is also printed as the last line, as one JSON object")
		seed     = flag.Uint64("seed", 1, "seed the op rings and simulator cells are generated from")
		seconds  = flag.Int("seconds", 30, "measuring time per workload")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics, ladder and span files instead of the full-length measurement")
		out      = flag.String("out", filepath.Join("out", "result.json"), "result file; span files go beside it")
		compare  = flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 || flag.NArg() != 0 {
		fatal(fmt.Errorf("want -seconds >= 1, -trace 0 or 1, and no arguments"))
	}
	run := specs
	if *workload != "" {
		sp, ok := specByName(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		run = []spec{sp}
	}

	runtime.GOMAXPROCS(procs)
	opt := options{
		seed: *seed, measure: time.Duration(*seconds) * time.Second, segDur: time.Second,
		warmup: 2000, setups: 5, setupBudget: time.Second, simCycles: simCycles, simWarm: simCycles / 4,
		outDir: filepath.Dir(*out),
	}
	if *trace == 1 {
		// The traced invocation spends its time three ways: a short
		// untraced run (the ladder's reference), the traced run, and
		// the replayed rungs.
		opt.trace = true
		opt.measure /= 3
		opt.rungDur = max(opt.measure/5, 200*time.Millisecond)
	}
	file := resultFile{
		Seed: *seed, Commit: commit(), GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: procs,
		MeasureS: opt.measure.Seconds(), SegmentS: opt.segDur.Seconds(), Traced: opt.trace,
	}
	ok := true
	for _, sp := range run {
		res := runWorkload(sp, opt)
		printResult(res, opt)
		file.Workloads = append(file.Workloads, res)
		ok = ok && res.Correct
	}
	if err := writeResult(*out, file); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
	if *workload != "" {
		printDriverLine(file.Workloads[0], opt.trace)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// commit names the tree that ran; a checkout without git history
// (the driver's) reads "unknown".
func commit() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func writeResult(path string, file resultFile) error {
	buf, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func printResult(res workloadResult, opt options) {
	fmt.Printf("== %s  fingerprint %s  wall %.1fs\n", res.Name, res.Fingerprint, res.WallS)
	for _, d := range endToEnd {
		m := res.EndToEnd[d.Name]
		fmt.Printf("  %-26s %14.4f %-6s %d values, median %.4f, iqr %.1f%%\n",
			d.Name, m.Value, m.Unit, len(m.Segments), median(m.Segments), 100*iqrShare(m.Segments))
	}
	fmt.Printf("  %-26s %14.6f %-6s %d failed of %d attempted\n",
		"failed_ratio", res.FailedRatio, "ratio", res.Failed, res.Attempted)
	if opt.trace {
		for _, d := range perLayer {
			fmt.Printf("  %-26s %14.4f %s\n", d.Name, res.PerLayer[d.Name].Value, d.Unit)
		}
		l := func(name string) float64 { return res.PerLayer[name].Value }
		if p50 := res.EndToEnd["req_p50_us"].Value; res.SimCounts == nil && p50 > 0 {
			fmt.Printf("  ladder: http.self %.2f + client.codec %.2f + txkv.codec_self %.2f + txkv.dispatch_self %.2f + txkv.apply %.2f, residual %.2f of req_p50_us %.2f (%.1f%%)\n",
				l("http.self_p50_us"), l("client.codec_us"), l("txkv.codec_self_us"), l("txkv.dispatch_self_us"),
				l("txkv.apply_us"), l("ladder.residual_us"), p50, 100*l("ladder.residual_us")/p50)
		}
	}
	if res.Error != "" {
		fmt.Printf("  INCORRECT: %s\n", res.Error)
	}
}

// printDriverLine is the contract with the benchmark driver: the last
// line of standard output is one JSON object holding the end-to-end
// metrics, or with -trace 1 the per-layer ones.
func printDriverLine(res workloadResult, traced bool) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src := res.EndToEnd
	if traced {
		src = res.PerLayer
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metric{}}
	for name, m := range src {
		line.Metrics[name] = metric{m.Value, m.Unit}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(buf))
}
