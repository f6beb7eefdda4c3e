package engine

import (
	"strings"
	"testing"

	"fx10/internal/constraints"
	"fx10/internal/parser"
	"fx10/internal/progen"
	"fx10/internal/syntax"
)

// TestAnalyzeDeltaEquivalenceCorpus is the acceptance sweep for the
// incremental pipeline: 200 seeded (program, single-method edit)
// pairs, each analyzed under all four algorithms, with AnalyzeDelta
// required to match a from-scratch analysis bit for bit — valuation,
// M, and E. Context-sensitive throughout (the summary-bearing mode);
// TestAnalyzeDeltaContextInsensitive covers CI.
func TestAnalyzeDeltaEquivalenceCorpus(t *testing.T) {
	pairs := 0
	for seed := int64(0); seed < 50; seed++ {
		cfg := progen.Default()
		if seed%2 == 1 {
			cfg = progen.Finite()
		}
		p := progen.Generate(seed, cfg)
		for k := 0; k < 4; k++ {
			mi := (int(seed) + k) % len(p.Methods)
			edited := progen.MutateMethod(p, mi, seed*4+int64(k))
			pairs++
			for _, alg := range constraints.Algorithms() {
				e := algorithmEngine(alg)
				base, err := e.Analyze(Job{Program: p, Mode: constraints.ContextSensitive})
				if err != nil {
					t.Fatal(err)
				}
				delta, err := e.AnalyzeDelta(base, edited)
				if err != nil {
					t.Fatalf("seed %d edit %d (%s): %v", seed, k, alg, err)
				}
				scratch, err := e.Analyze(Job{Program: edited, Mode: constraints.ContextSensitive})
				if err != nil {
					t.Fatal(err)
				}
				if !delta.Sol.ValuationEqual(scratch.Sol) {
					t.Fatalf("seed %d edit %d (%s): delta valuation differs from scratch\n%s",
						seed, k, alg, syntax.Print(edited))
				}
				if !delta.M.Equal(scratch.M) {
					t.Fatalf("seed %d edit %d (%s): delta M differs from scratch", seed, k, alg)
				}
				if !delta.Sol.Env().Equal(scratch.Sol.Env()) {
					t.Fatalf("seed %d edit %d (%s): delta E differs from scratch", seed, k, alg)
				}
				ds := delta.Stats.Delta
				if ds == nil {
					t.Fatalf("seed %d edit %d (%s): no DeltaStats", seed, k, alg)
				}
				if ds.MethodsTotal != len(edited.Methods) ||
					ds.MethodsReused+ds.MethodsResolved != ds.MethodsTotal {
					t.Fatalf("seed %d edit %d (%s): inconsistent DeltaStats %+v", seed, k, alg, *ds)
				}
				if !ds.Full && len(ds.DirtyMethods) == 0 {
					t.Fatalf("seed %d edit %d (%s): edit produced no dirty methods", seed, k, alg)
				}
			}
		}
	}
	if pairs != 200 {
		t.Fatalf("swept %d (program, edit) pairs, want 200", pairs)
	}
}

// TestAnalyzeDeltaContextInsensitive covers CI, where a method's values
// also depend on its callers.
func TestAnalyzeDeltaContextInsensitive(t *testing.T) {
	e := MustNew(Config{CacheSize: -1})
	for seed := int64(0); seed < 25; seed++ {
		p := progen.Generate(seed, progen.Default())
		base, err := e.Analyze(Job{Program: p, Mode: constraints.ContextInsensitive})
		if err != nil {
			t.Fatal(err)
		}
		for mi := range p.Methods {
			edited := progen.MutateMethod(p, mi, seed*17+int64(mi))
			delta, err := e.AnalyzeDelta(base, edited)
			if err != nil {
				t.Fatal(err)
			}
			scratch, err := e.Analyze(Job{Program: edited, Mode: constraints.ContextInsensitive})
			if err != nil {
				t.Fatal(err)
			}
			if !delta.Sol.ValuationEqual(scratch.Sol) || !delta.M.Equal(scratch.M) {
				t.Fatalf("seed %d method %d: CI delta differs from scratch\n%s",
					seed, mi, syntax.Print(edited))
			}
		}
	}
}

// TestAnalyzeDeltaReusesMethods pins the DeltaStats contract of a
// cache miss: on a fan-out program, editing one leaf dirties exactly
// that leaf and its caller (the content hash covers a method's whole
// call-graph subtree) and never the untouched sibling, and the
// analysis re-solves the whole program — nothing is reused until a
// seeded solve lands.
func TestAnalyzeDeltaReusesMethods(t *testing.T) {
	build := func(extra bool) *syntax.Program {
		b := syntax.NewBuilder(4)
		b.MustAddMethod("left", b.Stmts(b.Async("", b.Stmts(b.Skip("")))))
		instrs := []syntax.Instr{b.Async("", b.Stmts(b.Skip("")))}
		if extra {
			instrs = append(instrs, b.Skip(""))
		}
		b.MustAddMethod("right", b.Stmts(instrs...))
		b.MustAddMethod("main", b.Stmts(
			b.Finish("", b.Stmts(b.Call("", "left"), b.Call("", "right"))),
		))
		return b.MustProgram()
	}
	e := MustNew(Config{CacheSize: -1})
	base, err := e.Analyze(Job{Program: build(false), Mode: constraints.ContextSensitive})
	if err != nil {
		t.Fatal(err)
	}
	delta, err := e.AnalyzeDelta(base, build(true))
	if err != nil {
		t.Fatal(err)
	}
	ds := delta.Stats.Delta
	if got := strings.Join(ds.DirtyMethods, ","); got != "main,right" {
		t.Errorf("dirty methods = %v, want [main right]", ds.DirtyMethods)
	}
	if !ds.Full || ds.MethodsTotal != 3 || ds.MethodsResolved != ds.MethodsTotal || ds.MethodsReused != 0 {
		t.Errorf("DeltaStats = %+v, want a full solve of all 3 methods", *ds)
	}
	if ds.ConstraintsReevaluated != delta.Stats.Evaluations {
		t.Errorf("ConstraintsReevaluated = %d, want the solve's %d evaluations",
			ds.ConstraintsReevaluated, delta.Stats.Evaluations)
	}
}

// TestAnalyzeDeltaPhaseShift: an edit that only touches main can change
// an untouched helper's clock phases — here a second call site at a
// different phase joins the helper's entry phase to ⊤, un-pruning
// pairs the base analysis dropped. The helper's content hash does not
// change, so it is not dirty, yet its values must not be the base's:
// the delta result must equal a scratch analysis in both modes.
func TestAnalyzeDeltaPhaseShift(t *testing.T) {
	const helper = `
void work() {
  WC: clocked async {
    WA: a[0] = 1;
    WN: next;
    WB: a[1] = 2;
  }
  WD: a[2] = 3;
  WM: next;
  WE: a[3] = 4;
}
`
	base := parser.MustParse("array 8;\n" + helper + `
void main() {
  F1: work();
}
`)
	edited := parser.MustParse("array 8;\n" + helper + `
void main() {
  F1: work();
  MN: next;
  F2: work();
}
`)
	e := MustNew(Config{CacheSize: -1})
	for _, mode := range []constraints.Mode{constraints.ContextSensitive, constraints.ContextInsensitive} {
		baseRes, err := e.Analyze(Job{Program: base, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		delta, err := e.AnalyzeDelta(baseRes, edited)
		if err != nil {
			t.Fatal(err)
		}
		scratch, err := e.Analyze(Job{Program: edited, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		// Vacuity guard: at a single phase-0 call site WB (phase 1) and
		// WD (phase 0) are serialized by the barrier; with the entry
		// phase joined to ⊤ the pair comes back.
		wb, _ := base.LabelByName("WB")
		wd, _ := base.LabelByName("WD")
		wb2, _ := edited.LabelByName("WB")
		wd2, _ := edited.LabelByName("WD")
		if baseRes.M.Has(int(wb), int(wd)) || !scratch.M.Has(int(wb2), int(wd2)) {
			t.Fatalf("%v: the edit does not shift the helper's phases", mode)
		}
		if got := delta.Stats.Delta.DirtyMethods; len(got) != 1 || got[0] != "main" {
			t.Errorf("%v: dirty methods = %v, want [main]", mode, got)
		}
		if !delta.Sol.ValuationEqual(scratch.Sol) || !delta.M.Equal(scratch.M) {
			t.Fatalf("%v: delta differs from scratch after a phase-shifting edit", mode)
		}
	}
}

// TestAnalyzeDeltaCacheHit: when the edited program is already in the
// program cache, AnalyzeDelta serves it with zero re-solving.
func TestAnalyzeDeltaCacheHit(t *testing.T) {
	e := MustNew(Config{CacheSize: 8})
	p := progen.Generate(1, progen.Default())
	edited := progen.AppendSkip(p, 0)
	base, err := e.Analyze(Job{Program: p, Mode: constraints.ContextSensitive})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Analyze(Job{Program: edited, Mode: constraints.ContextSensitive}); err != nil {
		t.Fatal(err)
	}
	delta, err := e.AnalyzeDelta(base, edited)
	if err != nil {
		t.Fatal(err)
	}
	if !delta.Stats.CacheHit {
		t.Fatal("expected a program-cache hit")
	}
	ds := delta.Stats.Delta
	if ds == nil || ds.MethodsReused != ds.MethodsTotal || ds.MethodsResolved != 0 || ds.Full {
		t.Fatalf("cache-hit DeltaStats = %+v, want everything reused", ds)
	}
	if len(ds.DirtyMethods) == 0 {
		t.Error("cache hit reported no dirty methods for a real edit")
	}
}

// TestAnalyzeDeltaErrors: incomplete bases are rejected.
func TestAnalyzeDeltaErrors(t *testing.T) {
	e := MustNew(Config{CacheSize: -1})
	p := progen.Generate(2, progen.Default())
	if _, err := e.AnalyzeDelta(nil, p); err == nil {
		t.Error("nil base accepted")
	}
	base, err := e.Analyze(Job{Program: p, Mode: constraints.ContextSensitive})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AnalyzeDelta(base, nil); err == nil {
		t.Error("nil edited program accepted")
	}
}

// TestSummaryCacheCrossProgram: a method shared verbatim between two
// different programs is summarized once — the second program's
// analysis finds it in the summary tier, translated into its own label
// space and equal to what solving computes.
func TestSummaryCacheCrossProgram(t *testing.T) {
	shared := func(b *syntax.Builder) {
		b.MustAddMethod("shared", b.Stmts(
			b.Finish("", b.Stmts(b.Async("", b.Stmts(b.Skip(""), b.Skip(""))))),
			b.Async("", b.Stmts(b.Skip(""))),
		))
	}
	b1 := syntax.NewBuilder(4)
	shared(b1)
	b1.MustAddMethod("main", b1.Stmts(b1.Call("", "shared")))
	p1 := b1.MustProgram()

	b2 := syntax.NewBuilder(4)
	shared(b2)
	b2.MustAddMethod("main", b2.Stmts(
		b2.Skip(""),
		b2.Async("", b2.Stmts(b2.Call("", "shared"))),
	))
	p2 := b2.MustProgram()

	e := MustNew(Config{CacheSize: 8})
	if _, err := e.Analyze(Job{Program: p1, Mode: constraints.ContextSensitive}); err != nil {
		t.Fatal(err)
	}
	s2, _ := p2.MethodIndex("shared")
	if p1Idx, _ := p1.MethodIndex("shared"); p1.MethodHash(p1Idx) != p2.MethodHash(s2) {
		t.Fatal("shared methods do not share a content hash")
	}
	got, ok := e.CachedSummary(p2, s2)
	if !ok {
		t.Fatal("summary tier miss for a content-identical method")
	}
	res2, err := e.Analyze(Job{Program: p2, Mode: constraints.ContextSensitive})
	if err != nil {
		t.Fatal(err)
	}
	want := res2.Sol.MethodSummary(s2)
	if !got.O.Equal(want.O) || !got.M.Equal(want.M) {
		t.Fatalf("cross-program summary differs from solved summary:\ngot  O=%v\nwant O=%v", got.O, want.O)
	}
	if stats := e.CacheStats(); stats.SummaryHits == 0 {
		t.Error("no summary-tier hits recorded")
	}
}
