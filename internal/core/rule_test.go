package core_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"strings"
	"testing"

	"txconflict/internal/core"
	"txconflict/internal/rng"
	"txconflict/internal/sim"
	"txconflict/internal/strategy"
)

// recorder is a Strategy that records the conflict it was asked to
// price, counts its calls and answers a fixed delay.
type recorder struct {
	delay float64
	seen  *core.Conflict
	calls *int
}

func (s recorder) Delay(c core.Conflict, r *rng.Rand) float64 {
	*s.seen = c
	*s.calls++
	return s.delay
}
func (recorder) Name() string { return "recorder" }

// fixedMean is a MeanSource that counts its reads.
type fixedMean struct {
	mu    float64
	reads *int
}

func (m fixedMean) ProfileMean() float64 { *m.reads++; return m.mu }

// TestRule pins the one conflict decision both backends make: one row
// per Rule field, the Section 9 switch on either side of k = 2, Corollary
// 2's backoff and its cap, the B floor, and the grace clamp.
func TestRule(t *testing.T) {
	inf := math.Inf(1)
	receiver := core.Side{B: 100, Attempts: 3}
	requestor := core.Side{B: 40, Attempts: 1}
	cases := []struct {
		name      string
		rule      core.Rule
		k         int
		receiver  core.Side
		requestor core.Side
		delay     float64 // what the strategy answers
		want      core.Decision
		wantMean  float64 // µ the strategy must see
	}{
		// Resolution: the doomed side's B base is priced.
		{"policy RW prices the receiver", core.Rule{Policy: core.RequestorWins}, 2, receiver, requestor, 7,
			core.Decision{Policy: core.RequestorWins, K: 2, B: 100, Grace: 7}, 0},
		{"policy RA prices the requestor", core.Rule{Policy: core.RequestorAborts}, 2, receiver, requestor, 7,
			core.Decision{Policy: core.RequestorAborts, K: 2, B: 40, Grace: 7}, 0},
		{"k < 2 reads as 2", core.Rule{Policy: core.RequestorWins}, 0, receiver, requestor, 7,
			core.Decision{Policy: core.RequestorWins, K: 2, B: 100, Grace: 7}, 0},
		// Hybrid: the Section 9 switch overrides Policy.
		{"hybrid k=2 is RA", core.Rule{Policy: core.RequestorWins, Hybrid: true}, 2, receiver, requestor, 7,
			core.Decision{Policy: core.RequestorAborts, K: 2, B: 40, Grace: 7}, 0},
		{"hybrid k=3 is RW", core.Rule{Policy: core.RequestorAborts, Hybrid: true}, 3, receiver, requestor, 7,
			core.Decision{Policy: core.RequestorWins, K: 3, B: 100, Grace: 7}, 0},
		// UseMeanProfile: µ reaches the strategy only when set.
		{"mean profile", core.Rule{UseMeanProfile: true}, 2, receiver, requestor, 7,
			core.Decision{Policy: core.RequestorWins, K: 2, B: 100, Grace: 7}, 55},
		// BackoffFactor and MaxBackoffB: Corollary 2 on the doomed
		// side's attempts, saturating at the cap.
		{"backoff receiver", core.Rule{BackoffFactor: 2}, 2, receiver, requestor, 7,
			core.Decision{Policy: core.RequestorWins, K: 2, B: 800, Grace: 7}, 0},
		{"backoff requestor", core.Rule{Policy: core.RequestorAborts, BackoffFactor: 2}, 2, receiver, requestor, 7,
			core.Decision{Policy: core.RequestorAborts, K: 2, B: 80, Grace: 7}, 0},
		{"no attempts keep the base", core.Rule{BackoffFactor: 2}, 2, core.Side{B: 100}, requestor, 7,
			core.Decision{Policy: core.RequestorWins, K: 2, B: 100, Grace: 7}, 0},
		{"factor 1 disables backoff", core.Rule{BackoffFactor: 1, MaxBackoffB: 50}, 2, receiver, requestor, 7,
			core.Decision{Policy: core.RequestorWins, K: 2, B: 100, Grace: 7}, 0},
		{"backoff saturates at MaxBackoffB", core.Rule{BackoffFactor: 2, MaxBackoffB: 500}, 2,
			core.Side{B: 100, Attempts: 10}, requestor, 7,
			core.Decision{Policy: core.RequestorWins, K: 2, B: 500, Grace: 7}, 0},
		{"MaxBackoffB caps a first attempt", core.Rule{BackoffFactor: 2, MaxBackoffB: 60}, 2, core.Side{B: 100}, requestor, 7,
			core.Decision{Policy: core.RequestorWins, K: 2, B: 60, Grace: 7}, 0},
		{"no cap overflows to +Inf", core.Rule{BackoffFactor: 1e300}, 2, core.Side{B: 1e10, Attempts: 2}, requestor, 7,
			core.Decision{Policy: core.RequestorWins, K: 2, B: inf, Grace: 7}, 0},
		// B <= 0 floors at 1, before backoff.
		{"B=0 floors at 1", core.Rule{}, 2, core.Side{B: 0}, requestor, 7,
			core.Decision{Policy: core.RequestorWins, K: 2, B: 1, Grace: 7}, 0},
		{"negative B floors at 1", core.Rule{BackoffFactor: 2}, 2, core.Side{B: -5, Attempts: 2}, requestor, 7,
			core.Decision{Policy: core.RequestorWins, K: 2, B: 4, Grace: 7}, 0},
		// The grace clamp: NaN and non-positive to 0, anything above
		// MaxGrace (one minute of nanoseconds) to MaxGrace.
		{"grace +Inf", core.Rule{}, 2, receiver, requestor, inf,
			core.Decision{Policy: core.RequestorWins, K: 2, B: 100, Grace: core.MaxGrace}, 0},
		{"grace above MaxInt64", core.Rule{}, 2, receiver, requestor, 2 * float64(math.MaxInt64),
			core.Decision{Policy: core.RequestorWins, K: 2, B: 100, Grace: core.MaxGrace}, 0},
		{"grace just above cap", core.Rule{}, 2, receiver, requestor, core.MaxGrace * 1.5,
			core.Decision{Policy: core.RequestorWins, K: 2, B: 100, Grace: core.MaxGrace}, 0},
		{"grace at cap", core.Rule{}, 2, receiver, requestor, core.MaxGrace,
			core.Decision{Policy: core.RequestorWins, K: 2, B: 100, Grace: core.MaxGrace}, 0},
		{"grace NaN", core.Rule{}, 2, receiver, requestor, math.NaN(),
			core.Decision{Policy: core.RequestorWins, K: 2, B: 100}, 0},
		{"grace -Inf", core.Rule{}, 2, receiver, requestor, math.Inf(-1),
			core.Decision{Policy: core.RequestorWins, K: 2, B: 100}, 0},
		{"grace negative", core.Rule{}, 2, receiver, requestor, -5,
			core.Decision{Policy: core.RequestorWins, K: 2, B: 100}, 0},
		{"grace 0", core.Rule{}, 2, receiver, requestor, 0,
			core.Decision{Policy: core.RequestorWins, K: 2, B: 100}, 0},
		{"grace sane", core.Rule{}, 2, receiver, requestor, 1500,
			core.Decision{Policy: core.RequestorWins, K: 2, B: 100, Grace: 1500}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var seen core.Conflict
			calls, reads := 0, 0
			r := c.rule
			r.Strategy = recorder{c.delay, &seen, &calls}
			got := r.Decide(c.k, c.receiver, c.requestor, fixedMean{55, &reads}, rng.New(1))
			if got != c.want {
				t.Fatalf("decision %+v, want %+v", got, c.want)
			}
			if want := (core.Conflict{Policy: got.Policy, K: got.K, B: got.B, Mean: c.wantMean}); seen != want || calls != 1 {
				t.Fatalf("strategy saw %+v in %d calls, want %+v once", seen, calls, want)
			}
			if (reads == 1) != c.rule.UseMeanProfile || reads > 1 {
				t.Fatalf("µ read %d times with UseMeanProfile %v", reads, c.rule.UseMeanProfile)
			}
		})
	}

	// Strategy: nil means no grace, and neither the rng nor µ is
	// touched (the rule still records the policy and B).
	t.Run("nil strategy", func(t *testing.T) {
		reads := 0
		r := rng.New(9)
		got := (&core.Rule{Policy: core.RequestorAborts, UseMeanProfile: true}).Decide(2, receiver, requestor, fixedMean{55, &reads}, r)
		if want := (core.Decision{Policy: core.RequestorAborts, K: 2, B: 40}); got != want || reads != 0 {
			t.Fatalf("decision %+v with %d µ reads, want %+v and none", got, reads, want)
		}
		if r.Uint64() != rng.New(9).Uint64() {
			t.Fatal("nil strategy drew from the rng")
		}
	})

	// The simulator arms whole cycles: the clamped grace converts to a
	// schedulable sim.Time, truncating fractions.
	t.Run("htm cycles", func(t *testing.T) {
		for _, c := range []struct {
			x    float64
			want sim.Time
		}{
			{math.NaN(), 0}, {math.Inf(-1), 0}, {-1, 0}, {0, 0}, {0.5, 0}, {37.9, 37},
			{inf, core.MaxGrace}, {1e300, core.MaxGrace},
		} {
			var seen core.Conflict
			calls := 0
			r := core.Rule{Strategy: recorder{c.x, &seen, &calls}}
			if got := sim.Time(r.Decide(2, receiver, requestor, nil, nil).Grace); got != c.want {
				t.Errorf("strategy delay %v: grace %d cycles, want %d", c.x, got, c.want)
			}
		}
	})

	// A HYBRID strategy under a fixed requestor-wins resolution is told
	// requestor wins at k = 2, so it prices the grace with requestor
	// wins' optimal strategy — the policy the backend applies — not with
	// the Section 9 choice (requestor aborts' exponential) it would have
	// made for itself.
	t.Run("HYBRID without hybrid resolution", func(t *testing.T) {
		rule := core.Rule{Policy: core.RequestorWins, Strategy: strategy.Hybrid{}}
		got := rule.Decide(2, receiver, requestor, nil, rng.New(5))
		want := strategy.GeneralRW{}.Delay(core.Conflict{Policy: core.RequestorWins, K: 2, B: 100}, rng.New(5))
		if got.Policy != core.RequestorWins || got.Grace != want {
			t.Fatalf("decision %+v, want requestor wins with RRW*'s grace %v", got, want)
		}
	})
}

func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]core.Policy{
		"rw": core.RequestorWins, "RW": core.RequestorWins, "RequestorWins": core.RequestorWins,
		"ra": core.RequestorAborts, "Ra": core.RequestorAborts, "requestoraborts": core.RequestorAborts,
	} {
		if got, err := core.ParsePolicy(in); err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "nope", "requestor-aborts", "requestor"} {
		if _, err := core.ParsePolicy(bad); err == nil {
			t.Errorf("ParsePolicy(%q) accepted", bad)
		}
	}
}

// TestOneConflictRule is the source guard for the conflict decision: no
// non-test file of a backend (internal/stm, internal/htm) may call a
// strategy's Delay, back B off, or compare a chain length against 2 to
// pick a resolution. Rule.Decide is the one place those live, so a
// second copy of the paper's decision cannot drift back in unnoticed.
func TestOneConflictRule(t *testing.T) {
	for _, dir := range []string{"../stm", "../htm"} {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil || len(pkgs) == 0 {
			t.Fatalf("%s: %d packages, %v", dir, len(pkgs), err)
		}
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				ast.Inspect(file, func(n ast.Node) bool {
					var conds []ast.Expr
					var body []ast.Node
					switch n := n.(type) {
					case *ast.CallExpr:
						if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Delay" {
							t.Errorf("%s: a strategy's Delay called outside core.Rule", fset.Position(n.Pos()))
						}
					case *ast.Ident:
						if name := strings.ToLower(n.Name); name == "backoffb" || name == "hybridpolicy" {
							t.Errorf("%s: %s outside core.Rule", fset.Position(n.Pos()), n.Name)
						}
					case *ast.IfStmt:
						conds, body = []ast.Expr{n.Cond}, []ast.Node{n.Body, n.Else}
					case *ast.CaseClause:
						conds, body = n.List, []ast.Node{&ast.BlockStmt{List: n.Body}}
					}
					if comparesToTwo(conds) && namesResolution(body) {
						t.Errorf("%s: a resolution picked by comparing against 2 outside core.Rule", fset.Position(n.Pos()))
					}
					return true
				})
			}
		}
	}
}

// comparesToTwo reports whether any of exprs compares something with
// the literal 2.
func comparesToTwo(exprs []ast.Expr) bool {
	found := false
	for _, e := range exprs {
		ast.Inspect(e, func(n ast.Node) bool {
			b, ok := n.(*ast.BinaryExpr)
			if !ok {
				return true
			}
			switch b.Op {
			case token.LSS, token.LEQ, token.EQL, token.NEQ, token.GTR, token.GEQ:
				for _, side := range []ast.Expr{b.X, b.Y} {
					if lit, ok := side.(*ast.BasicLit); ok && lit.Value == "2" {
						found = true
					}
				}
			}
			return true
		})
	}
	return found
}

// namesResolution reports whether any of nodes mentions
// RequestorWins or RequestorAborts.
func namesResolution(nodes []ast.Node) bool {
	found := false
	for _, node := range nodes {
		if node == nil {
			continue
		}
		ast.Inspect(node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && (id.Name == "RequestorWins" || id.Name == "RequestorAborts") {
				found = true
			}
			return true
		})
	}
	return found
}
