package engine

import "time"

// Stats records per-stage metrics for one analysis: where the time
// went, how hard the solver worked, and whether the cache served the
// result. On a cache hit the solver-stage numbers (Labels, Generate,
// Solve, iteration counts, AllocBytes) are those of the original run
// that populated the cache; Parse, Report and Total are always those
// of the current request.
type Stats struct {
	// Strategy is the solver strategy that produced the solution.
	Strategy string
	// CacheHit reports whether the labels/constraints/solve stages
	// were served from the engine's result cache.
	CacheHit bool

	// Stage durations.
	Parse    time.Duration // source → AST (zero when a Program was supplied)
	Labels   time.Duration // Slabels fixpoint
	Generate time.Duration // constraint generation
	Solve    time.Duration // least-solution computation
	Report   time.Duration // per-request extraction of M (MainM)
	// Total is the end-to-end wall time of this request, including
	// cache lookups.
	Total time.Duration

	// Solver work counters (see constraints.Solution).
	IterSlabels int
	IterL1      int
	IterL2      int
	Evaluations int64
	// AllocBytes is the heap allocated during the solve stage.
	AllocBytes uint64

	// Delta is set only on results produced by AnalyzeDelta.
	Delta *DeltaStats
}

// DeltaStats reports what an AnalyzeDelta edit changed and what the
// analysis reused.
type DeltaStats struct {
	// MethodsTotal is the edited program's method count. On a
	// program-cache hit every method is reused (MethodsReused ==
	// MethodsTotal); otherwise the whole program is re-solved
	// (MethodsResolved == MethodsTotal and Full).
	MethodsTotal    int
	MethodsReused   int
	MethodsResolved int
	// DirtyMethods names the methods whose content hash differed from
	// their same-named method in the base, sorted.
	DirtyMethods []string
	// ConstraintsReevaluated counts the constraint evaluations of the
	// solve (Stats.Evaluations); zero on a cache hit.
	ConstraintsReevaluated int64
	// Full is true when the whole program was re-solved.
	Full bool
	// SummaryHits and SummaryMisses count dirty methods whose summary
	// was (respectively was not) already present in the engine's
	// method-summary tier before the solve — cross-program sharing at
	// work. Zero on a cache hit and when the tier is disabled.
	SummaryHits, SummaryMisses int
}

// PipelineDuration is the analysis-only time (labels + generation +
// solving) — the quantity the paper's Figure 8 reports, excluding
// parsing and result extraction.
func (s Stats) PipelineDuration() time.Duration {
	return s.Labels + s.Generate + s.Solve
}

// CacheStats aggregates an engine's cache traffic: the program tier
// (Hits/Misses) and the method-summary tier (SummaryHits/
// SummaryMisses). SummarySkipped counts summary probes for clocked
// programs, which the tier excludes by design — neither hits nor
// misses, so a mixed corpus does not overstate the hit rate.
type CacheStats struct {
	Hits, Misses               uint64
	SummaryHits, SummaryMisses uint64
	SummarySkipped             uint64
}
