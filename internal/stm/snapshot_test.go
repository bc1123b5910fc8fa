package stm

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"txconflict/internal/core"
	"txconflict/internal/metrics"
	"txconflict/internal/rng"
)

// TestSnapshotExtension pins the invariant behind the carried
// snapshot: an attempt extends exactly once when it meets words someone
// else committed after its descriptor's snapshot, however many of them
// it reads — not on first contact, and not for its own commits, which
// also cover everything committed before them.
func TestSnapshotExtension(t *testing.T) {
	rt := New(8, DefaultConfig())
	mine := rt.Worker(0, rng.New(1))
	defer mine.Release()
	other := rt.Worker(1, rng.New(2))
	defer other.Release()
	store := func(w *Worker, idxs ...int) {
		t.Helper()
		if err := w.Atomic(func(tx *Tx) error {
			for _, idx := range idxs {
				tx.Store(idx, tx.Load(idx)+1)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// extensions runs one read-only block over idxs on mine and returns
	// how many times it extended.
	extensions := func(idxs ...int) uint64 {
		t.Helper()
		before := rt.Stats.Snapshot()["extensions"]
		if err := mine.Atomic(func(tx *Tx) error {
			for _, idx := range idxs {
				tx.Load(idx)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return rt.Stats.Snapshot()["extensions"] - before
	}

	store(&mine, 0, 1, 2, 3)
	if n := extensions(0, 1, 2, 3); n != 0 {
		t.Errorf("reading back its own commit, the descriptor extended %d times", n)
	}
	store(&other, 4, 5, 6, 7)
	if n := extensions(4, 5, 6, 7); n != 1 {
		t.Errorf("four words committed by another descriptor: %d extensions, want 1", n)
	}
	if n := extensions(0, 1, 2, 3, 4, 5, 6, 7); n != 0 {
		t.Errorf("nobody wrote since the last block, yet %d extensions", n)
	}
	store(&other, 1)
	store(&other, 5)
	if n := extensions(0, 1, 2, 3, 5); n != 1 {
		t.Errorf("two words committed in between, by two blocks: %d extensions, want 1", n)
	}
	store(&other, 6)
	store(&mine, 0)
	if n := extensions(0, 6); n != 0 {
		t.Errorf("a word committed before the descriptor's own commit: %d extensions, want 0", n)
	}
	if st := rt.Stats.Snapshot(); st["aborts"] != 0 {
		t.Fatalf("extension path aborted: %v", st)
	}
}

// TestSnapshotCarried: the snapshot survives reset and ends a commit —
// eager or lazy — and an eager rollback at the stamp the descriptor
// itself drew.
func TestSnapshotCarried(t *testing.T) {
	fail := errors.New("roll back")
	for _, lazy := range []bool{false, true} {
		t.Run(fmt.Sprintf("lazy=%v", lazy), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Lazy = lazy
			rt := New(8, cfg)
			w := rt.Worker(0, rng.New(1))
			defer w.Release()
			check := func(what string, want uint64) {
				t.Helper()
				if w.tx.rv != want || w.tx.wv != 0 {
					t.Fatalf("%s: rv = %d, wv = %d; want rv = %d and no stamp left", what, w.tx.rv, w.tx.wv, want)
				}
			}
			_ = w.Atomic(func(tx *Tx) error { tx.Store(2, 1); tx.Store(6, 1); return nil })
			check("after a commit of two words", 1)
			w.tx.reset(nanos())
			check("after reset", 1)
			_ = w.Atomic(func(tx *Tx) error { tx.Store(2, 2); tx.Store(3, 2); return nil })
			check("after a second commit", 2)
			if err := w.Atomic(func(tx *Tx) error { tx.Store(3, 9); return fail }); err != fail {
				t.Fatal(err)
			}
			if lazy { // nothing was locked, nothing stamped
				check("after a lazy user abort", 2)
			} else {
				check("after an eager rollback", 3)
			}
			if c := rt.clock.Load(); c != w.tx.rv {
				t.Fatalf("commit clock %d, want the descriptor's last stamp %d", c, w.tx.rv)
			}
		})
	}
}

// TestCarriedSnapshotOpacity: a reader that keeps one descriptor — and
// so one carried snapshot — across all its blocks never sees a torn
// pair, doomed attempts included, adjacent words or not. The yield between a block's first two loads invites the writer
// in; the retry runs straight through, or on one P the writer would
// commit inside every attempt and the reader never finish a block.
func TestCarriedSnapshotOpacity(t *testing.T) {
	for _, pair := range [][2]int{{0, 1}, {0, 4}} {
		t.Run(fmt.Sprintf("words=%v", pair), func(t *testing.T) {
			t.Parallel()
			rt := New(8, DefaultConfig())
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				w := rt.Worker(0, rng.New(1))
				defer w.Release()
				for i := uint64(1); ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					_ = w.Atomic(func(tx *Tx) error {
						tx.Store(pair[0], i)
						tx.Store(pair[1], i)
						return nil
					})
					runtime.Gosched()
				}
			}()
			r := rt.Worker(1, rng.New(2))
			defer r.Release()
			for deadline := time.Now().Add(100 * time.Millisecond); time.Now().Before(deadline); {
				_ = r.Atomic(func(tx *Tx) error {
					a := tx.Load(pair[0])
					if tx.Attempts() == 0 {
						runtime.Gosched()
					}
					if b := tx.Load(pair[1]); a != b {
						t.Errorf("torn pair: %d, %d", a, b)
					}
					return nil
				})
			}
			close(stop)
			wg.Wait()
		})
	}
}

// TestShardedObjectSumInvariant drives the TxApp-style object-sum
// invariant (each transaction increments two distinct objects, per
// internal/workload) through the runtime under a kill-heavy
// requestor-wins configuration: NO_DELAY grace means every conflict
// kills the receiver immediately. Serializability requires
// Σ objects = 2 × committed ops exactly. The "flat" variant counts into
// a one-shard metrics plane; the "sharded" ones into New's default.
// Run under -race this doubles as the data-race audit of the arena and
// the epoch-kill protocol.
func TestShardedObjectSumInvariant(t *testing.T) {
	const objects = 64
	goroutines, perG := 8, 400
	if testing.Short() {
		goroutines, perG = 4, 150
	}
	for _, variant := range []struct {
		name string
		cfg  Config
	}{
		{"eager-flat", Config{Policy: Policy{Rule: core.Rule{Policy: core.RequestorWins}, MaxRetries: 128}, Metrics: metrics.NewPlane(1, 0)}},
		{"eager-sharded", Config{Policy: Policy{Rule: core.Rule{Policy: core.RequestorWins}, MaxRetries: 128}}},
		{"lazy-sharded", Config{Policy: Policy{Rule: core.Rule{Policy: core.RequestorWins}, MaxRetries: 128}, Lazy: true}},
	} {
		variant := variant
		t.Run(variant.name, func(t *testing.T) {
			t.Parallel()
			rt := New(objects, variant.cfg) // Strategy nil: kill-heavy NO_DELAY
			root := rng.New(42)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				r := root.Split()
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						_ = rt.Atomic(r, func(tx *Tx) error {
							a, b := r.TwoDistinct(objects)
							tx.Store(a, tx.Load(a)+1)
							tx.Store(b, tx.Load(b)+1)
							return nil
						})
					}
				}()
			}
			wg.Wait()
			var sum uint64
			for i := 0; i < objects; i++ {
				sum += rt.ReadCommitted(i)
			}
			want := uint64(2 * goroutines * perG)
			if sum != want {
				t.Fatalf("object sum = %d, want %d (stats %v)", sum, want, rt.Stats.Snapshot())
			}
			if got := rt.Stats.Snapshot()["commits"]; got != uint64(goroutines*perG) {
				t.Fatalf("commits = %d, want %d", got, goroutines*perG)
			}
		})
	}
}

// TestOneCommitClock fails if a non-test file of the package writes a
// version clock — any call on a `clock` field but Load — outside
// bumpClock, the one stamp site: a second would skip its overflow
// check, or advance the clock more than once for one commit.
func TestOneCommitClock(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	advances := 0
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				allowed := ok && fd.Recv != nil && fd.Name.Name == "bumpClock"
				ast.Inspect(decl, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					method, ok := call.Fun.(*ast.SelectorExpr)
					if !ok || method.Sel.Name == "Load" {
						return true
					}
					if field, ok := method.X.(*ast.SelectorExpr); !ok || field.Sel.Name != "clock" {
						return true
					}
					advances++
					if !allowed {
						t.Errorf("%s: clock.%s outside bumpClock", fset.Position(call.Pos()), method.Sel.Name)
					}
					return true
				})
			}
		}
	}
	if advances != 1 {
		t.Errorf("found %d clock writes in the package, want exactly bumpClock's", advances)
	}
}
