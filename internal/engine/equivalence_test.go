package engine

import (
	"fmt"
	"testing"

	"fx10/internal/constraints"
	"fx10/internal/labels"
	"fx10/internal/progen"
	"fx10/internal/syntax"
)

// TestStrategyEquivalenceProgenCorpus is the executable form of the
// paper's Theorems 5–6: the constraint system has a unique least
// solution, so every solving algorithm — phased (the Section 5.3
// three-phase optimization, the reference), topo (SCC-condensed
// topological propagation, the production solver), and the two
// oracles monolithic (the unoptimized joint fixpoint) and worklist
// (change-driven re-evaluation) — must assign bit-identical values to
// every set and pair variable. It sweeps a seeded progen
// corpus of 50 programs (25 full-calculus, 25 loop-free) in both
// analysis modes.
func TestStrategyEquivalenceProgenCorpus(t *testing.T) {
	var programs []*syntax.Program
	for seed := int64(0); seed < 25; seed++ {
		programs = append(programs, progen.Generate(seed, progen.Default()))
	}
	for seed := int64(100); seed < 125; seed++ {
		programs = append(programs, progen.Generate(seed, progen.Finite()))
	}

	algs := constraints.Algorithms()
	strategies := make([]Strategy, len(algs))
	for i, alg := range algs {
		strategies[i] = algorithmStrategy{alg}
	}

	modes := []constraints.Mode{constraints.ContextSensitive, constraints.ContextInsensitive}
	checked := 0
	for pi, p := range programs {
		in := labels.Compute(p)
		for _, mode := range modes {
			sys := constraints.Generate(in, mode)
			base := strategies[0].Solve(sys)
			for _, strat := range strategies[1:] {
				sol := strat.Solve(sys)
				if !base.ValuationEqual(sol) {
					t.Fatalf("program %d (%v): %s valuation differs from %s\nprogram:\n%s",
						pi, mode, strat.Name(), strategies[0].Name(), syntax.Print(p))
				}
				checked++
			}
			// Sanity: the comparison is not vacuous — the solved main
			// M must exist (possibly empty for async-free programs).
			if sys.MethodM == nil {
				t.Fatalf("program %d (%v): no method variables", pi, mode)
			}
		}
	}
	if want := len(programs) * len(modes) * (len(strategies) - 1); checked != want {
		t.Fatalf("checked %d strategy comparisons, want %d", checked, want)
	}
}

// TestStrategyEquivalenceViaEngines runs the same check through full
// engines (cache off), covering the engine→pipeline path and the
// derived views rather than raw valuations: the registered topo
// strategy and both oracles against the registered phased reference.
func TestStrategyEquivalenceViaEngines(t *testing.T) {
	var jobs []Job
	for seed := int64(200); seed < 210; seed++ {
		jobs = append(jobs, Job{
			Name:    fmt.Sprintf("progen-%d", seed),
			Program: progen.Generate(seed, progen.Default()),
		})
	}
	base := MustNew(Config{Strategy: "phased", CacheSize: -1}).AnalyzeCorpus(jobs)
	for _, alg := range constraints.Algorithms()[1:] {
		got := algorithmEngine(alg).AnalyzeCorpus(jobs)
		for i := range jobs {
			if base[i].Err != nil || got[i].Err != nil {
				t.Fatalf("%s/%v: %v / %v", jobs[i].Name, alg, base[i].Err, got[i].Err)
			}
			if !base[i].Result.M.Equal(got[i].Result.M) {
				t.Errorf("%s: %v M differs from phased", jobs[i].Name, alg)
			}
		}
	}
}

// algorithmEngine builds a cache-free engine around any constraints
// algorithm, including the oracles the registry does not expose.
func algorithmEngine(alg constraints.Algorithm) *Engine {
	e, err := newEngine(Config{CacheSize: -1}, algorithmStrategy{alg})
	if err != nil {
		panic(err)
	}
	return e
}
