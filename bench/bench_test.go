package main

import (
	"math"
	"regexp"
	"runtime"
	"testing"
	"time"

	"txconflict/internal/txkv"
)

// goldenFingerprints pins the seed-1 inputs of every workload: two
// commits whose result files carry these fingerprints provably ran
// the same op streams. A change to a generator, the rng or a workload
// definition moves them, and must say so.
var goldenFingerprints = map[string]string{
	"sock-read-b16":    "40233f1c7aac4d23",
	"sock-doc-b128":    "5cabf52f211be0c1",
	"local-read-1":     "895027e0f0fc9940",
	"local-hot-2":      "feae69bc30cdac63",
	"local-hot-fold-2": "feae69bc30cdac63",
	"sim-hot-16":       "9295eb349e828aa0",
}

func TestGoldenFingerprints(t *testing.T) {
	for _, sp := range specs {
		var fp uint64
		if sp.kind == kindSim {
			in, err := buildSimInputs(1)
			if err != nil {
				t.Fatal(err)
			}
			fp = in.fp
		} else {
			w, err := txkv.ByName(sp.kv, txkv.Options{})
			if err != nil {
				t.Fatal(err)
			}
			_, _, fp = buildRings(w, sp, 1)
		}
		if got, want := fpString(fp), goldenFingerprints[sp.name]; got != want {
			t.Errorf("%s: seed-1 input fingerprint %s, golden %s", sp.name, got, want)
		}
	}
}

// TestSmoke runs every workload, traced, for 200 ms each part, and
// holds what it emits equal to BENCHMARK.json: same metric names and
// units, inside the contract's limits, and every workload the driver
// gates on is one of the benchmark's, in the benchmark's order.
func TestSmoke(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var bj benchmarkSpec
	if err := readJSON(benchmarkJSON, &bj); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if n := len(bj.Workloads); n < 2 || n > 8 {
		t.Fatalf("BENCHMARK.json has %d workloads (limit 2..8)", n)
	}
	gated := bj.Workloads
	if len(bj.EndToEnd) > 16 || len(bj.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics exceed the 16 / 128 limits", len(bj.EndToEnd), len(bj.PerLayer))
	}
	wantE2E, wantLayer := map[string]string{}, map[string]string{}
	for _, m := range bj.EndToEnd {
		wantE2E[m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		wantLayer[m.Name] = m.Unit
	}

	opt := options{
		seed: 1, measure: 200 * time.Millisecond, segDur: 100 * time.Millisecond,
		warmup: 50, setups: 1, simCycles: 50_000, simWarm: 10_000,
		trace: true, rungDur: 50 * time.Millisecond, outDir: t.TempDir(),
	}
	for _, sp := range specs {
		if !name.MatchString(sp.name) {
			t.Errorf("workload name %q is outside the contract's alphabet", sp.name)
		}
		if len(gated) > 0 && gated[0].Name == sp.name {
			gated = gated[1:]
		}
		res := runWorkload(sp, opt)
		if !res.Correct {
			t.Errorf("%s: incorrect: %d failed of %d: %s", sp.name, res.Failed, res.Attempted, res.Error)
		}
		for kind, pair := range map[string]struct {
			got  map[string]measured
			want map[string]string
		}{"end-to-end": {res.EndToEnd, wantE2E}, "per-layer": {res.PerLayer, wantLayer}} {
			if len(pair.got) != len(pair.want) {
				t.Errorf("%s: %d %s metrics emitted, BENCHMARK.json lists %d", sp.name, len(pair.got), kind, len(pair.want))
			}
			for n, m := range pair.got {
				if unit, ok := pair.want[n]; !ok || unit != m.Unit || !name.MatchString(n) {
					t.Errorf("%s: %s metric %q [%s] not in BENCHMARK.json with that unit", sp.name, kind, n, m.Unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s = %v", sp.name, n, m.Value)
				}
			}
		}
		for n, m := range res.EndToEnd {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end %s = %v, want > 0", sp.name, n, m.Value)
			}
		}
	}
	for _, w := range gated {
		t.Errorf("BENCHMARK.json workload %q is not one of the benchmark's, or is out of order", w.Name)
	}
}

func TestFastestPasses(t *testing.T) {
	ms := func(n int) cellTimes { return cellTimes{run: time.Duration(n) * time.Millisecond, commits: 1000} }
	// Three passes over two cells; the second pass was disturbed.
	got := fastestPasses([]cellTimes{ms(10), ms(31), ms(15), ms(45), ms(11), ms(30)}, 2)
	for name, want := range map[string]float64{"req_p50_us": 10_000, "req_p90_us": 30_000, "ops_per_s": 2000 / 0.040} {
		if math.Abs(got[name]-want) > 1e-6 {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		worse, spread, bound float64
		want                 string
	}{
		{0.05, 0.02, 0.10, "within"},
		{0.15, 0.02, 0.10, "worse"},
		{-0.15, 0.02, 0.10, "better"},
		{0.15, 0.20, 0.10, "unresolved"},
		{0.05, 0.20, 0.10, "unresolved"},
		{0.30, 0.20, 0.10, "worse"},
	} {
		if got := verdict(c.worse, c.spread, c.bound); got != c.want {
			t.Errorf("verdict(%v, %v, %v) = %s, want %s", c.worse, c.spread, c.bound, got, c.want)
		}
	}
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) = [3.5, 13.5, 31.0]
	v := []float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}
	if got, want := iqrShare(v), (31.0-3.5)/13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}
