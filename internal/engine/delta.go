package engine

import (
	"context"
	"fmt"
	"sort"

	"fx10/internal/constraints"
	"fx10/internal/syntax"
)

// AnalyzeDelta analyzes edited, a revision of the program base was
// computed for, and reports which methods the edit changed. The
// analysis is a full AnalyzeCtx of edited in base's mode: the least
// solution is unique (Theorems 5–6), so a from-scratch solve gives
// exactly what an incremental one would, and the engine's equivalence
// tests plus difffuzz's incremental oracle hold it to that. Reusing the
// clean methods' summaries waits on a seeded solve (see ROADMAP.md);
// until then Stats.Delta reports every method re-solved, except on a
// program-cache hit, which reuses them all.
func (e *Engine) AnalyzeDelta(base *Result, edited *syntax.Program) (*Result, error) {
	return e.AnalyzeDeltaCtx(context.Background(), base, edited)
}

// AnalyzeDeltaCtx is AnalyzeDelta with cooperative cancellation (the
// same contract as AnalyzeCtx: cancellation caches nothing and
// returns ctx's error).
func (e *Engine) AnalyzeDeltaCtx(ctx context.Context, base *Result, edited *syntax.Program) (*Result, error) {
	if base == nil || base.Sys == nil || base.Program == nil {
		return nil, fmt.Errorf("engine: AnalyzeDelta needs a complete base result")
	}
	if edited == nil {
		return nil, fmt.Errorf("engine: AnalyzeDelta needs an edited program")
	}
	mode := base.Sys.Mode
	dirty, _ := dirtyMethods(base.Program, edited)

	// On a cache miss, probe the summary tier (memory or disk) for the
	// dirty methods before the analyze stores this run's summaries: a
	// hit means some already-analyzed program — in this process or,
	// via the persistent store, a previous one — had a
	// content-identical method (cross-program sharing).
	var hits, misses int
	probe := func() {
		if e.summaries == nil || mode != constraints.ContextSensitive || edited.UsesClocks() {
			return
		}
		for _, mi := range dirty {
			if e.summaryKnown(edited.MethodHash(mi)) {
				hits++
			} else {
				misses++
			}
		}
	}
	res, err := e.analyze(ctx, Job{Program: edited, Mode: mode}, probe)
	if err != nil {
		return nil, err
	}
	ds := DeltaOf(base.Program, res)
	ds.SummaryHits, ds.SummaryMisses = hits, misses
	res.Stats.Delta = ds
	return res, nil
}

// DeltaOf describes res, an analysis of an edited program, as an edit
// of base: the methods whose content hash differs from their
// same-named method in base are dirty. A program-cache hit reused
// every method; any other result re-solved the whole program.
// SummaryHits and SummaryMisses stay zero.
func DeltaOf(base *syntax.Program, res *Result) *DeltaStats {
	_, names := dirtyMethods(base, res.Program)
	ds := &DeltaStats{MethodsTotal: len(res.Program.Methods), DirtyMethods: names}
	if res.Stats.CacheHit {
		ds.MethodsReused = ds.MethodsTotal
	} else {
		ds.MethodsResolved = ds.MethodsTotal
		ds.Full = true
		ds.ConstraintsReevaluated = res.Stats.Evaluations
	}
	return ds
}

// dirtyMethods diffs edited against base by method content hash,
// matching methods by name. The hash covers a method's whole
// call-graph subtree, so the transitive callers of an edited method
// are dirty too. It returns the dirty methods' indices in edited and
// their names, sorted.
func dirtyMethods(base, edited *syntax.Program) ([]int, []string) {
	baseHash := make(map[string]syntax.ProgramHash, len(base.Methods))
	for mi, m := range base.Methods {
		baseHash[m.Name] = base.MethodHash(mi)
	}
	var dirty []int
	var names []string
	for mi, m := range edited.Methods {
		if h, ok := baseHash[m.Name]; !ok || h != edited.MethodHash(mi) {
			dirty = append(dirty, mi)
			names = append(names, m.Name)
		}
	}
	sort.Strings(names)
	return dirty, names
}
