package constraints

import (
	"testing"

	"fx10/internal/labels"
	"fx10/internal/progen"
	"fx10/internal/syntax"
)

// deltaSys generates the system for p in the given mode.
func deltaSys(p *syntax.Program, mode Mode) *System {
	return Generate(labels.Compute(p), mode)
}

// dirtyByHash diffs edited against base by method content hash,
// matching methods by name, the way engine.AnalyzeDelta names the
// methods an edit changed.
func dirtyByHash(base, edited *syntax.Program) []int {
	prev := map[string]syntax.ProgramHash{}
	for mi, m := range base.Methods {
		prev[m.Name] = base.MethodHash(mi)
	}
	var dirty []int
	for mi, m := range edited.Methods {
		if h, ok := prev[m.Name]; !ok || h != edited.MethodHash(mi) {
			dirty = append(dirty, mi)
		}
	}
	return dirty
}

// TestSolveDeltaEquivalence: a delta is a solve of the edited program
// after the base was solved. Across a seeded corpus of (program,
// single-method edit) pairs and both modes, with the base solved by
// each algorithm in turn (topo's base aliases pair sets), the
// production solve of the edited system must reproduce the
// from-scratch phased solution bit for bit, and must leave the base
// solution, which a delta session keeps serving, as it was.
func TestSolveDeltaEquivalence(t *testing.T) {
	for _, mode := range []Mode{ContextSensitive, ContextInsensitive} {
		for seed := int64(0); seed < 20; seed++ {
			p := progen.Generate(seed, progen.Default())
			alg := Algorithms()[seed%4]
			prevSol := deltaSys(p, mode).Solve(alg)
			baseWant := deltaSys(p, mode).Solve(Phased)
			for mi := range p.Methods {
				edited := progen.MutateMethod(p, mi, seed*31+int64(mi))
				if len(dirtyByHash(p, edited)) == 0 {
					continue
				}
				sys := deltaSys(edited, mode)
				got := sys.Solve(Topo)
				want := sys.Solve(Phased)
				if !got.ValuationEqual(want) {
					t.Fatalf("%v seed %d method %d (%v base): delta valuation differs\n%s",
						mode, seed, mi, alg, syntax.Print(edited))
				}
				if !prevSol.ValuationEqual(baseWant) {
					t.Fatalf("%v seed %d method %d (%v base): solving the edit changed the base solution",
						mode, seed, mi, alg)
				}
			}
		}
	}
}

// TestSolveDeltaStrictSubset: editing one method of a fan-out program
// dirties that method and its transitive callers only, never an
// untouched sibling; context-sensitively the sibling's solved summary
// is the same before and after the edit, and the edited system solves
// to the scratch solution.
func TestSolveDeltaStrictSubset(t *testing.T) {
	build := func(extra bool) *syntax.Program {
		b := syntax.NewBuilder(4)
		b.MustAddMethod("leaf", b.Stmts(b.Async("", b.Stmts(b.Skip("")))))
		instrs := []syntax.Instr{b.Async("", b.Stmts(b.Skip(""))), b.Skip("")}
		if extra {
			instrs = append(instrs, b.Skip(""))
		}
		b.MustAddMethod("edited", b.Stmts(instrs...))
		b.MustAddMethod("main", b.Stmts(
			b.Finish("", b.Stmts(b.Call("", "leaf"), b.Call("", "edited"))),
		))
		return b.MustProgram()
	}
	base, edited := build(false), build(true)
	dirty := dirtyByHash(base, edited)
	leaf, _ := edited.MethodIndex("leaf")
	ed, _ := edited.MethodIndex("edited")
	if len(dirty) != 2 || len(dirty) == len(edited.Methods) {
		t.Fatalf("dirty methods %v, want the edited method and main", dirty)
	}
	for _, mi := range dirty {
		if mi == leaf {
			t.Fatalf("dirty methods %v include the untouched leaf method", dirty)
		}
	}
	if dirty[0] != ed && dirty[1] != ed {
		t.Fatalf("dirty methods %v miss the edited method %d", dirty, ed)
	}

	prevSol := deltaSys(base, ContextSensitive).Solve(Worklist)
	sys := deltaSys(edited, ContextSensitive)
	got := sys.Solve(Topo)
	if !got.ValuationEqual(sys.Solve(Worklist)) {
		t.Fatal("delta valuation differs from scratch")
	}
	// The leaf is built first, so its labels keep their numbers; the
	// label universes differ, so compare the summaries element-wise.
	baseLeaf, _ := base.MethodIndex("leaf")
	was, now := prevSol.MethodSummary(baseLeaf), got.MethodSummary(leaf)
	if was.O.Empty() {
		t.Fatal("vacuous: the leaf's o summary is empty")
	}
	if was.M.String() != now.M.String() || was.O.String() != now.O.String() {
		t.Fatalf("the untouched leaf's summary changed under the edit: (%v, %v) -> (%v, %v)",
			was.M, was.O, now.M, now.O)
	}
}
