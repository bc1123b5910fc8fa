package stm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"sync"
	"testing"

	"txconflict/internal/core"
	"txconflict/internal/rng"
)

// TestWorkerChainTiles: n blocks through one handle are n attempts and
// n commits, and their attempt intervals tile — block i+1 starts at
// the very stamp block i ended at, so the observed attempt time sums
// to exactly last end − first start (no second clock read per block),
// which in turn fits inside the loop's own elapsed time (intervals
// never overlap or reach back before the handle was opened).
func TestWorkerChainTiles(t *testing.T) {
	var first, last int64
	cfg := DefaultConfig()
	cfg.Trace = tracerFunc(func(tr *TxTrace) {
		if first == 0 {
			first = tr.StartUnixNs
		}
		last = tr.StartUnixNs + tr.DurNs
	})
	rt := New(8, cfg)
	const n = 100
	t0 := nanos()
	w := rt.Worker(0, rng.New(1))
	for i := 0; i < n; i++ {
		_ = w.Atomic(func(tx *Tx) error { tx.Store(i%8, tx.Load(i%8)+1); return nil })
	}
	w.Release()
	outer := nanos() - t0

	snap := rt.Metrics().Snapshot()
	if snap.Attempt.Count != n || snap.Commit.Count != n {
		t.Fatalf("attempts = %d, commits = %d, want %d each", snap.Attempt.Count, snap.Commit.Count, n)
	}
	if got := int64(snap.Attempt.Sum); got != last-first || got > outer {
		t.Fatalf("Σ attempt = %d ns, want exactly last end − first start = %d and ≤ the loop's %d",
			got, last-first, outer)
	}
}

// captureB is a Strategy that records the abort cost it was asked to
// price and requests no delay.
type captureB struct{ b *float64 }

func (c captureB) Delay(conf core.Conflict, _ *rng.Rand) float64 { *c.b = conf.B; return 0 }
func (c captureB) Name() string                                  { return "capture-B" }

// TestGraceForPricesElapsedPlusCleanup: the abort cost handed to the
// strategy is the time the paying side has run — the stamp the wait
// opened at minus that side's start stamp, the receiver's as published
// in startNanos, the requestor's its own — plus Policy.CleanupCost,
// whichever clock the stamps come from, and the decision records it.
func TestGraceForPricesElapsedPlusCleanup(t *testing.T) {
	var b float64
	cfg := DefaultConfig()
	cfg.Strategy = captureB{&b}
	cfg.BackoffFactor = 0
	rt := New(1, cfg)
	const ownerRan, selfRan = 40_000, 7_000
	now := nanos()
	owner := &Tx{rt: rt}
	owner.startNanos.Store(now - ownerRan)
	tx := &Tx{rt: rt, pol: rt.pol.Load()}
	tx.start = now - selfRan
	cleanup := float64(cfg.CleanupCost.Nanoseconds())
	for pol, want := range map[core.Policy]float64{
		core.RequestorWins:   ownerRan + cleanup, // the receiver would be killed
		core.RequestorAborts: selfRan + cleanup,  // the requestor would abort itself
	} {
		p := *tx.pol
		p.Policy = pol
		tx.pol = &p
		d := tx.decide(owner, 2, now)
		if b != want || d.B != want || d.Policy != pol {
			t.Errorf("policy %v: strategy saw B = %v, decision %+v, want B = %v", pol, b, d, want)
		}
	}
}

// TestOneClock is the source guard for the package's time source:
// outside clock.go's clockBase and nanos, no non-test file may read a
// clock (time.Now, time.Since, time.Until), so a second time source —
// or a second read where one stamp would do — cannot drift back in
// unnoticed.
func TestOneClock(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	reads := 0
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				allowed := false
				switch d := decl.(type) {
				case *ast.FuncDecl:
					allowed = d.Recv == nil && d.Name.Name == "nanos"
				case *ast.GenDecl:
					if len(d.Specs) == 1 {
						vs, ok := d.Specs[0].(*ast.ValueSpec)
						allowed = ok && len(vs.Names) == 1 && vs.Names[0].Name == "clockBase"
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "time" {
						return true
					}
					switch sel.Sel.Name {
					case "Now", "Since", "Until":
						reads++
						if !allowed {
							t.Errorf("%s: time.%s outside the one clock (use nanos)",
								fset.Position(sel.Pos()), sel.Sel.Name)
						}
					}
					return true
				})
			}
		}
	}
	if reads != 2 {
		t.Errorf("found %d clock reads in the package, want exactly clockBase's time.Now and nanos's time.Since", reads)
	}
}

// benchModes is the commit-mode axis of the microbenchmarks: eager
// encounter-time locking (the default, and the only mode a gated bench/
// workload runs), unbatched lazy, and lazy through the group-commit
// combiner with a four-member lane.
func benchModes() []struct {
	name string
	cfg  Config
} {
	lazy := DefaultConfig()
	lazy.Lazy = true
	return []struct {
		name string
		cfg  Config
	}{{"eager", DefaultConfig()}, {"lazy", lazy}, {"lazyb4", batchedConfig(4)}}
}

// BenchmarkAtomicBlock is the fixed cost of one committed one-word
// block through the two entries, one block per b.N so ns/op is
// ns/block (reported under that name too): oneshot is AtomicWorker (a
// descriptor-pool round trip per block), handle16 runs sixteen blocks
// per Worker handle (one pool round trip per sixteen blocks) — the
// shape of a txkv batch. Each runs in every commit mode (benchModes)
// and with two bodies: store, which locks its word and so stamps and
// reads the clock at its end, and load, a read-only block, which reads
// no clock unless it is one of the plane's samples.
func BenchmarkAtomicBlock(b *testing.B) {
	bodies := []struct {
		name string
		fn   func(tx *Tx) error
	}{
		{"store", func(tx *Tx) error { tx.Store(3, 4); return nil }},
		{"load", func(tx *Tx) error { tx.Load(3); return nil }},
	}
	for _, perHandle := range []int{1, 16} {
		name := "oneshot"
		if perHandle > 1 {
			name = "handle16"
		}
		for _, mode := range benchModes() {
			for _, body := range bodies {
				b.Run(name+"/"+mode.name+"/"+body.name, func(b *testing.B) {
					rt := New(64, mode.cfg)
					r := rng.New(1)
					b.ResetTimer()
					for i := 0; i < b.N; i += perHandle {
						if perHandle == 1 {
							_ = rt.AtomicWorker(0, r, body.fn)
							continue
						}
						w := rt.Worker(0, r)
						for j := 0; j < perHandle && i+j < b.N; j++ {
							_ = w.Atomic(body.fn)
						}
						w.Release()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/block")
				})
			}
		}
	}
}

// BenchmarkHotPair is the conflict-path unit cost, for -cpu 2: two
// goroutines, one Worker handle each, every block a read-modify-write
// of one of four shared words drawn from the goroutine's own stream.
// Beside BenchmarkAtomicBlock (no second core) it prices what sharing
// costs per committed block: the lines two cores pass back and forth
// plus the conflicts themselves (aborts/block). The body is the first
// axis — rmw, Store(Load+1), which an eager block locks at its Store,
// and add, Add(idx, 1), which it locks at the read (LoadForUpdate) —
// and each commit mode (benchModes) is a sub-benchmark of both.
func BenchmarkHotPair(b *testing.B) {
	bodies := []struct {
		name string
		fn   func(tx *Tx, idx int)
	}{
		{"rmw", func(tx *Tx, idx int) { tx.Store(idx, tx.Load(idx)+1) }},
		{"add", func(tx *Tx, idx int) { tx.Add(idx, 1) }},
	}
	for _, body := range bodies {
		for _, mode := range benchModes() {
			b.Run(body.name+"/"+mode.name, func(b *testing.B) {
				rt := New(64, mode.cfg)
				var wg sync.WaitGroup
				b.ResetTimer()
				for g := 0; g < 2; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						r := rng.New(uint64(g) + 1)
						w := rt.Worker(g, r)
						defer w.Release()
						for i := g; i < b.N; i += 2 {
							idx := int(r.Uint64() & 3)
							_ = w.Atomic(func(tx *Tx) error { body.fn(tx, idx); return nil })
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				var sum uint64
				for idx := 0; idx < 4; idx++ {
					sum += rt.ReadCommitted(idx)
				}
				if sum != uint64(b.N) {
					b.Fatalf("%d blocks committed %d increments", b.N, sum)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/block")
				b.ReportMetric(float64(rt.Stats.Snapshot()["aborts"])/float64(b.N), "aborts/block")
			})
		}
	}
}
