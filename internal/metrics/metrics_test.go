package metrics

import (
	"bufio"
	"bytes"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"txconflict/internal/rng"
)

// TestBucketLayout pins the bucket boundary algebra: indices are
// monotone in the value, BucketLower inverts bucketIndex on bucket
// starts, and bucket width never exceeds 1/8 of the lower bound.
func TestBucketLayout(t *testing.T) {
	prev := -1
	for v := uint64(0); v < 1<<14; v++ {
		i := bucketIndex(v)
		if i < prev {
			t.Fatalf("bucketIndex not monotone at %d: %d < %d", v, i, prev)
		}
		if i != prev {
			if got := BucketLower(i); got != v {
				t.Fatalf("BucketLower(%d) = %d, want bucket start %d", i, got, v)
			}
			prev = i
		}
	}
	for i := 2 * histSubCount; i < NumBuckets-1; i++ {
		lo, hi := BucketLower(i), BucketLower(i+1)
		if hi <= lo {
			t.Fatalf("bucket %d empty: [%d, %d)", i, lo, hi)
		}
		if width := hi - lo; width*histSubCount > lo {
			t.Fatalf("bucket %d too wide: width %d > lower/8 = %d", i, width, lo/histSubCount)
		}
	}
	// Extremes stay in range.
	if i := bucketIndex(math.MaxUint64); i != NumBuckets-1 {
		t.Fatalf("max value lands in bucket %d, want %d", i, NumBuckets-1)
	}
}

// TestQuantileErrorBound draws random samples from several shapes and
// checks every reported quantile against the exact order statistic:
// relative error must stay within the bucket-midpoint bound (1/16,
// with a little slack for the <8ns exact region).
func TestQuantileErrorBound(t *testing.T) {
	r := rng.New(42)
	shapes := map[string]func() int64{
		"uniform": func() int64 { return int64(r.Uint64n(2_000_000)) },
		"exp":     func() int64 { return int64(r.ExpFloat64() * 50_000) },
		"heavy": func() int64 {
			if r.Bool(0.99) {
				return int64(r.Uint64n(10_000))
			}
			return int64(10_000_000 + r.Uint64n(90_000_000))
		},
	}
	for name, draw := range shapes {
		var h Histogram
		samples := make([]int64, 0, 20_000)
		for i := 0; i < 20_000; i++ {
			v := draw()
			h.Observe(v)
			samples = append(samples, v)
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		s := h.Snapshot()
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			rank := int(math.Ceil(q*float64(len(samples)))) - 1
			exact := float64(samples[rank])
			got := s.Quantile(q)
			if exact < histSubCount {
				if math.Abs(got-exact) > 1 {
					t.Errorf("%s q%.3f: got %.1f, exact %.1f", name, q, got, exact)
				}
				continue
			}
			if rel := math.Abs(got-exact) / exact; rel > 1.0/16+1e-9 {
				t.Errorf("%s q%.3f: got %.1f, exact %.1f, rel err %.4f > 1/16", name, q, got, exact, rel)
			}
		}
	}
}

// TestMergeAssociativity checks that shard merging commutes and
// associates: any merge order of three snapshots yields identical
// counts, and Sub inverts Merge.
func TestMergeAssociativity(t *testing.T) {
	r := rng.New(7)
	mk := func() HistSnapshot {
		var h Histogram
		for i := 0; i < 5_000; i++ {
			h.Observe(int64(r.Uint64n(1_000_000)))
		}
		return h.Snapshot()
	}
	a, b, c := mk(), mk(), mk()

	ab := a
	ab.Merge(&b)
	abc1 := ab
	abc1.Merge(&c)

	bc := b
	bc.Merge(&c)
	abc2 := bc
	abc2.Merge(&a)

	if abc1 != abc2 {
		t.Fatal("merge order changed the snapshot")
	}
	back := abc1.Sub(c)
	if back != ab {
		t.Fatal("Sub did not invert Merge")
	}
}

// TestGoldenFingerprint pins the bucket layout and hash: a seeded
// sample stream must always produce the same fingerprint, or recorded
// golden histograms silently stop being comparable across versions.
func TestGoldenFingerprint(t *testing.T) {
	r := rng.New(12345)
	var h Histogram
	for i := 0; i < 10_000; i++ {
		h.Observe(int64(r.Uint64n(10_000_000)))
	}
	s := h.Snapshot()
	const want = 0xccde340c331a28d
	if got := s.Fingerprint(); got != want {
		t.Fatalf("fingerprint = %#x, want %#x (bucket layout or hash changed)", got, want)
	}
}

// TestPlaneShards checks worker routing and snapshot merging across
// shards, including the anonymous worker id -1.
func TestPlaneShards(t *testing.T) {
	p := NewPlane(4, 0)
	if p.SampleN() != DefaultSampleN {
		t.Fatalf("SampleN = %d, want default %d", p.SampleN(), DefaultSampleN)
	}
	for w := -1; w < 8; w++ {
		p.Shard(w).ObserveAttempt(int64(100 * (w + 2)))
		p.Shard(w).Abort(AbortKilled)
	}
	s := p.Snapshot()
	if s.Attempt.Count != 9 {
		t.Fatalf("merged attempt count = %d, want 9", s.Attempt.Count)
	}
	if s.Aborts[AbortKilled] != 9 {
		t.Fatalf("merged killed aborts = %d, want 9", s.Aborts[AbortKilled])
	}
	if got := s.AbortCounts()["killed"]; got != 9 {
		t.Fatalf("AbortCounts[killed] = %d, want 9", got)
	}
}

// refShard is what ObserveCommits replaced, kept as the reference it is
// held to: per committed block one Observe on each histogram.
type refShard struct{ attempt, commit Histogram }

func (s *refShard) observe(attemptNs, blockNs int64) {
	s.attempt.Observe(attemptNs)
	s.commit.Observe(blockNs)
}

// TestObserveCommitsMatchesSequential: folding a ledger in bulk leaves
// the attempt and commit histograms (fingerprint, count, sum)
// bit-identical to observing its blocks one at a time, for ledgers of
// every length up to a full one and durations that are negative
// (clamped), on a bucket boundary or one below it, runs inside one
// bucket, neighbouring buckets, and blocks whose attempt and block
// durations differ.
func TestObserveCommitsMatchesSequential(t *testing.T) {
	r := rng.New(23)
	draw := func(prev int64) int64 {
		switch r.Uint64n(8) {
		case 0:
			return -int64(r.Uint64n(1000)) - 1
		case 6, 7: // within an octave of the last one: a neighbouring bucket
			return max(prev, 8)/2 + int64(r.Uint64n(uint64(max(prev, 8))))
		case 1:
			return int64(BucketLower(int(r.Uint64n(200))))
		case 2:
			return int64(BucketLower(1+int(r.Uint64n(200)))) - 1
		case 3, 4:
			return prev // a run of one bucket
		default:
			return int64(r.Uint64n(5_000_000))
		}
	}
	p := NewPlane(1, 0)
	sh := p.Shard(0)
	var ref refShard
	check := func(round int, attemptNs, blockNs []int64) {
		t.Helper()
		sh.ObserveCommits(attemptNs, blockNs)
		for i := range attemptNs {
			ref.observe(attemptNs[i], blockNs[i])
		}
		snap := p.Snapshot()
		for _, h := range []struct {
			name string
			got  HistSnapshot
			want HistSnapshot
		}{
			{"attempt", snap.Attempt, ref.attempt.Snapshot()},
			{"commit", snap.Commit, ref.commit.Snapshot()},
		} {
			if h.got.Fingerprint() != h.want.Fingerprint() || h.got.Count != h.want.Count || h.got.Sum != h.want.Sum {
				t.Fatalf("round %d (%v / %v): %s histogram count %d sum %d fingerprint %#x, want %d %d %#x",
					round, attemptNs, blockNs, h.name, h.got.Count, h.got.Sum, h.got.Fingerprint(),
					h.want.Count, h.want.Sum, h.want.Fingerprint())
			}
		}
	}
	check(-1, nil, nil) // an empty ledger is no observation, not a zero one
	for round := 0; round < 400; round++ {
		n := 1 + round%16
		attemptNs, blockNs := make([]int64, n), make([]int64, n)
		var prev int64
		for i := range attemptNs {
			prev = draw(prev)
			attemptNs[i], blockNs[i] = prev, prev
			if r.Bool(0.3) { // a retried block: longer than its last attempt
				blockNs[i] = draw(prev)
			}
		}
		check(round, attemptNs, blockNs)
	}
}

// TestPromExposition parses the writer's own output: TYPE/HELP before
// samples, well-formed sample lines, all abort reasons and phases
// present, summary quantiles monotone.
func TestPromExposition(t *testing.T) {
	p := NewPlane(2, 0)
	r := rng.New(3)
	for i := 0; i < 1000; i++ {
		p.Shard(i%2).ObserveCommits([]int64{int64(r.Uint64n(100_000))}, []int64{int64(r.Uint64n(200_000))})
	}
	p.Shard(0).Abort(AbortValidation)
	p.Shard(0).Phase(PhaseLock, 1234)

	var buf bytes.Buffer
	snap := p.Snapshot()
	if err := snap.WriteProm(&buf, "txstm"); err != nil {
		t.Fatal(err)
	}
	families, samples := parseExposition(t, buf.String())
	for _, fam := range []string{
		"txstm_attempt_latency_seconds", "txstm_commit_latency_seconds",
		"txstm_grace_wait_seconds", "txstm_combiner_drain_seconds",
		"txstm_aborted_attempts_total", "txstm_commit_phase_seconds_total",
	} {
		if _, ok := families[fam]; !ok {
			t.Errorf("family %s missing", fam)
		}
	}
	for r := 0; r < NumAbortReasons; r++ {
		want := `txstm_aborted_attempts_total{reason="` + AbortReason(r).String() + `"}`
		if _, ok := samples[want]; !ok {
			t.Errorf("abort series %s missing", want)
		}
	}
	// Summary quantiles are nondecreasing in q.
	prev := -1.0
	for _, q := range []string{"0.5", "0.9", "0.99", "0.999"} {
		v, ok := samples[`txstm_commit_latency_seconds{quantile="`+q+`"}`]
		if !ok {
			t.Fatalf("quantile %s missing", q)
		}
		if v < prev {
			t.Errorf("quantile %s = %g below previous %g", q, v, prev)
		}
		prev = v
	}
}

// parseExposition is a strict-enough parser for the text format:
// returns TYPE by family and value by sample key. Fails the test on
// malformed lines or samples without a preceding TYPE.
func parseExposition(t *testing.T, text string) (map[string]string, map[string]float64) {
	t.Helper()
	families := map[string]string{}
	samples := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			families[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		key, val := line[:sp], line[sp+1:]
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		base := key
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base = base[:i]
		}
		base = strings.TrimSuffix(strings.TrimSuffix(base, "_sum"), "_count")
		found := false
		for fam := range families {
			if strings.HasPrefix(base, fam) || strings.HasPrefix(fam, base) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("sample %q has no preceding TYPE", key)
		}
		samples[key] = f
	}
	return families, samples
}

// TestProfileMean: µ is Σ Sum ÷ Σ Count over the shards' commit
// histograms — the mean committed-block duration, whole blocks and not
// their last attempts — so it is populated from a runtime's first
// commit and idle shards do not drag it down.
func TestProfileMean(t *testing.T) {
	p := NewPlane(4, 0)
	if got := p.ProfileMean(); got != 0 {
		t.Fatalf("empty plane: mean %v", got)
	}
	p.Shard(0).ObserveCommits([]int64{1000}, []int64{1000})
	if got := p.ProfileMean(); got != 1000 {
		t.Fatalf("one block on one of four shards: mean %v, want 1000", got)
	}
	p.Shard(0).ObserveCommits([]int64{3000, 200}, []int64{3000, 700}) // a retried block
	p.Shard(2).ObserveCommits([]int64{500}, []int64{500})
	if got, want := p.ProfileMean(), (1000.0+3000+700+500)/4; got != want {
		t.Fatalf("mean %v, want %v", got, want)
	}
}

// TestKEstimate: k is Σk ÷ Σ Count over the shards' grace histograms,
// one k per grace wait, whichever shard observed it.
func TestKEstimate(t *testing.T) {
	p := NewPlane(4, 0)
	if got := p.KEstimate(); got != 0 {
		t.Fatalf("empty plane: k %v", got)
	}
	p.Shard(0).ObserveGrace(100, 2)
	p.Shard(0).ObserveGrace(-5, 3) // a clamped duration still counts its k
	p.Shard(3).ObserveGrace(4000, 5)
	if got, want := p.KEstimate(), (2.0+3+5)/3; got != want {
		t.Fatalf("k %v, want %v", got, want)
	}
	if n := p.Snapshot().Grace.Count; n != 3 {
		t.Fatalf("grace count %d, want 3", n)
	}
}

// TestShardProfileLayout: the Σk word is written on every grace wait, so
// it sits with the shard's other owner-written words (right behind the
// phase counters, the shard's last) and at least a cache line before
// the neighbour shard's first byte.
func TestShardProfileLayout(t *testing.T) {
	var s Shard
	kSum, phaseEnd := unsafe.Offsetof(s.kSum), unsafe.Offsetof(s.phaseN)+unsafe.Sizeof(s.phaseN)
	if kSum != phaseEnd {
		t.Errorf("kSum at %d is not right behind phaseN ending at %d", kSum, phaseEnd)
	}
	if tail := unsafe.Sizeof(s) - (kSum + 8); tail < cacheLine {
		t.Errorf("kSum ends %d bytes before the next shard, want at least %d", tail, cacheLine)
	}
}
