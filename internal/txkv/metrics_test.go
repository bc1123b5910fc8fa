package txkv

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"txconflict/internal/metrics"
	"txconflict/internal/rng"
	"txconflict/internal/stm"
)

// promFamilies is the exposition surface /metrics promises, name and
// type: the four latency summaries, the abort taxonomy, the sampled
// phase timers, the twelve stm.Stats counters and the
// runtime/control-plane gauges. smoke-txkvd and the churn test both
// fail if any family goes missing, is retyped, or gains an unlisted
// sibling.
var promFamilies = map[string]string{
	"txstm_attempt_latency_seconds":    "summary",
	"txstm_commit_latency_seconds":     "summary",
	"txstm_grace_wait_seconds":         "summary",
	"txstm_combiner_drain_seconds":     "summary",
	"txstm_aborted_attempts_total":     "counter",
	"txstm_commit_phase_seconds_total": "counter",
	"txstm_commit_phase_samples_total": "counter",
	"txstm_phase_sample_interval":      "gauge",
	"txstm_aborts_total":               "counter",
	"txstm_batch_commits_total":        "counter",
	"txstm_batch_fails_total":          "counter",
	"txstm_batches_total":              "counter",
	"txstm_commits_total":              "counter",
	"txstm_extensions_total":           "counter",
	"txstm_folded_commits_total":       "counter",
	"txstm_folded_words_total":         "counter",
	"txstm_grace_waits_total":          "counter",
	"txstm_irrevocable_total":          "counter",
	"txstm_kills_total":                "counter",
	"txstm_self_aborts_total":          "counter",
	"txkv_store_keys":                  "gauge",
	"txstm_policy_swaps_total":         "counter",
	"txstm_k_estimate":                 "gauge",
}

// statsKeys are the keys of the /v1/stats "stm" object (and of
// stm.Stats.Snapshot).
var statsKeys = []string{
	"aborts", "batchCommits", "batchFails", "batches", "commits", "extensions",
	"foldedCommits", "foldedWords", "graceWaits", "irrevocable", "kills", "selfAborts",
}

// checkExposition parses a Prometheus text-format (0.0.4) body and
// fails the test on any structural violation: a sample without a
// preceding TYPE line for its family, an unparsable value, or a
// family set other than promFamilies.
func checkExposition(t *testing.T, body string) {
	t.Helper()
	families := map[string]string{} // name -> type
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 {
				t.Fatalf("line %d: malformed comment %q", ln+1, line)
			}
			if parts[1] == "TYPE" {
				families[parts[2]] = parts[3]
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment form %q", ln+1, line)
		}
		// Sample line: name[{labels}] value
		name := line
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if j := strings.LastIndexByte(line, '}'); j < i {
				t.Fatalf("line %d: unbalanced labels in %q", ln+1, line)
			}
			name = name[:i]
		} else if i := strings.IndexByte(name, ' '); i >= 0 {
			name = name[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(name, "_count"), "_sum")
		if _, ok := families[base]; !ok {
			t.Fatalf("line %d: sample %q precedes its TYPE line", ln+1, name)
		}
		val := line[strings.LastIndexByte(line, ' ')+1:]
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			t.Fatalf("line %d: bad sample value %q: %v", ln+1, val, err)
		}
	}
	if !reflect.DeepEqual(families, promFamilies) {
		t.Errorf("exposition families = %v, want %v", families, promFamilies)
	}
}

// checkStatsKeys fetches /v1/stats and holds its "stm" object to
// exactly statsKeys.
func checkStatsKeys(t *testing.T, url string) {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		STM map[string]uint64 `json:"stm"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(st.STM))
	for k := range st.STM {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if !reflect.DeepEqual(keys, statsKeys) {
		t.Errorf("/v1/stats stm keys = %v, want %v", keys, statsKeys)
	}
}

// scrape fetches /metrics and returns the body, checking status and
// content type.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q, want text exposition 0.0.4", ct)
	}
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// TestMetricsExposition validates the full /metrics and /v1/stats
// contract on a fresh server — every series is present from the first
// scrape — and again after real traffic: parseable 0.0.4 exposition,
// exactly the promised families and stats keys, every abort-reason
// label, the quantile ladder on the commit-latency summary, and
// agreement between the exposed commit counter and the runtime's
// ground truth.
func TestMetricsExposition(t *testing.T) {
	w, err := ByName("document", Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := stm.DefaultConfig()
	cfg.Lazy = true
	cfg.CommitBatch = 4
	cfg.Metrics = metrics.NewPlane(4, 1) // every block sampled: the summary counts every commit
	store := w.NewStore(Config{STM: cfg})
	sv := NewServer(store, 4, 7)
	defer sv.Close()
	ts := httptest.NewServer(sv)
	defer ts.Close()

	check := func() string {
		body := scrape(t, ts.URL)
		checkExposition(t, body)
		checkStatsKeys(t, ts.URL)
		for r := 0; r < metrics.NumAbortReasons; r++ {
			want := `reason="` + metrics.AbortReason(r).String() + `"`
			if !strings.Contains(body, want) {
				t.Errorf("exposition missing abort series %s", want)
			}
		}
		for _, q := range []string{`quantile="0.5"`, `quantile="0.9"`, `quantile="0.99"`, `quantile="0.999"`} {
			if !strings.Contains(body, "txstm_commit_latency_seconds{"+q+"}") {
				t.Errorf("commit latency summary missing %s", q)
			}
		}
		return body
	}
	check()
	tot, err := drive(w, func(u int, r *rng.Rand) Client {
		return &LocalClient{Store: store, Worker: u, R: r}
	}, 4, 16, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := w.Check(store, tot); err != nil {
		t.Fatal(err)
	}
	body := check()
	// The exposed histogram count matches the runtime counter (the
	// store is quiesced between the traffic and the scrape).
	commits := store.Runtime().Stats.Snapshot()["commits"]
	want := "txstm_commit_latency_seconds_count " + strconv.FormatUint(commits, 10)
	if !strings.Contains(body, want) {
		t.Errorf("exposition lacks %q (runtime commits = %d)", want, commits)
	}
	if commits == 0 {
		t.Fatal("no commits recorded — the traffic phase measured nothing")
	}
}

// TestMetricsScrapeChurn is the -race exercise for the read path:
// concurrent /metrics scrapes while live traffic mutates the plane
// and a policy churner swaps the commit lane underneath both. Every
// scrape must still parse as well-formed exposition with the full
// family set.
func TestMetricsScrapeChurn(t *testing.T) {
	w, err := ByName("hotspot-counter", Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := stm.DefaultConfig()
	cfg.Lazy = true
	cfg.CommitBatch = 4
	cfg.Metrics = metrics.NewPlane(4, 4)
	store := w.NewStore(Config{STM: cfg})
	sv := NewServer(store, 4, 11)
	defer sv.Close()
	ts := httptest.NewServer(sv)
	defer ts.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Policy churner: flips the group-commit lane and the grace
	// budget, so scrapes race real SetPolicy swaps. It swaps once
	// before it first looks at stop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rt := store.Runtime()
		for i := 0; ; i++ {
			p := rt.Policy()
			if i%2 == 0 {
				p.CommitBatch = 0
			} else {
				p.CommitBatch = 4
			}
			rt.SetPolicy(p)
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}()

	// Scrapers: parse every body in full, at least one each.
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				checkExposition(t, scrape(t, ts.URL))
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}

	// Live traffic over the wire: a fixed number of batches per user.
	tot, err := drive(w, func(u int, r *rng.Rand) Client {
		return &HTTPClient{Base: ts.URL}
	}, 4, 16, 60, 5)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := w.Check(store, tot); err != nil {
		t.Fatal(err)
	}
}
