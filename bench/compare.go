package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// benchmarkSpec is the part of BENCHMARK.json the comparison reads:
// the bounds live there and nowhere else.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// benchmarkJSON sits at the repository root, one level above this
// directory, where the benchmark runs.
var benchmarkJSON = filepath.Join("..", "BENCHMARK.json")

func readJSON(path string, v any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict judges b against a for one metric. worse is b's median as
// a share of a's, positive when b is worse. A difference inside the
// bound is "within"; but when either file's own segment-to-segment
// spread is wider than the bound, a difference smaller than that
// spread cannot be told from noise and is "unresolved".
func verdict(worse, spread, bound float64) string {
	limit := bound
	if spread > bound {
		limit = spread
	}
	switch {
	case worse > limit:
		return "worse"
	case worse < -limit:
		return "better"
	case spread > bound:
		return "unresolved"
	}
	return "within"
}

// compareFiles applies BENCHMARK.json's bounds to every end-to-end
// metric of every workload the two result files share, a as the
// baseline. It reports whether any row is worse (or any simulated
// count differs).
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	var spec benchmarkSpec
	var a, b resultFile
	for path, v := range map[string]any{benchmarkJSON: &spec, pathA: &a, pathB: &b} {
		if err := readJSON(path, v); err != nil {
			return false, err
		}
	}
	if a.Seed != b.Seed {
		fmt.Fprintf(w, "note: seeds differ (%d vs %d): the two files ran different inputs\n", a.Seed, b.Seed)
	}
	byName := map[string]workloadResult{}
	for _, r := range b.Workloads {
		byName[r.Name] = r
	}
	fmt.Fprintf(w, "%-18s %-14s %14s %14s %8s %7s %7s  %s\n",
		"workload", "metric", "a", "b", "change", "spread", "bound", "verdict")
	for _, ra := range a.Workloads {
		rb, ok := byName[ra.Name]
		if !ok {
			continue
		}
		if ra.Fingerprint != rb.Fingerprint {
			fmt.Fprintf(w, "note: %s input fingerprints differ (%s vs %s)\n", ra.Name, ra.Fingerprint, rb.Fingerprint)
		}
		for _, m := range spec.EndToEnd {
			ma, mb := ra.EndToEnd[m.Name], rb.EndToEnd[m.Name]
			if ma.Value == 0 {
				continue
			}
			change := (mb.Value - ma.Value) / ma.Value
			worseBy := change
			if m.Better == "higher" {
				worseBy = -change
			}
			spread := max(iqrShare(ma.Segments), iqrShare(mb.Segments))
			v := verdict(worseBy, spread, m.Bound)
			worse = worse || v == "worse"
			fmt.Fprintf(w, "%-18s %-14s %14.4f %14.4f %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				ra.Name, m.Name, ma.Value, mb.Value, 100*change, 100*spread, 100*m.Bound, v)
		}
		if ra.Failed != 0 || rb.Failed != 0 {
			worse = worse || rb.Failed > ra.Failed
			fmt.Fprintf(w, "%-18s failed ops: %d vs %d\n", ra.Name, ra.Failed, rb.Failed)
		}
		if ra.SimCounts != nil && rb.SimCounts != nil && ra.Fingerprint == rb.Fingerprint {
			if *ra.SimCounts == *rb.SimCounts {
				fmt.Fprintf(w, "%-18s simulated counts identical\n", ra.Name)
			} else {
				worse = true
				fmt.Fprintf(w, "%-18s simulated counts DIFFER: %+v vs %+v\n", ra.Name, *ra.SimCounts, *rb.SimCounts)
			}
		}
	}
	return worse, nil
}
