// Package engine is the unified front door of the MHP analysis: a
// staged pipeline
//
//	parse → labels → constraint generation → solve → report
//
// behind a single reusable Engine that adds what the bare
// labels/constraints packages do not have —
//
//   - named, pluggable solver strategies (Strategy + registry): the
//     production topo solver and the paper's phased reference;
//   - corpus-level analysis on a bounded worker pool with per-program
//     panic isolation, so one bad program cannot kill a sweep;
//   - a two-tier cache: a program tier (content-hash-keyed LRU over
//     whole solved pipelines, serving repeated analyses of identical
//     programs) and a method-summary tier (keyed by per-method
//     content hash, sharing inferred summaries between
//     content-identical methods of different programs in a corpus —
//     see summaries.go);
//   - method-granular incremental analysis: AnalyzeDelta diffs an
//     edited program against a base result by method content hash
//     and re-solves only the dirty methods' call-graph closure
//     (constraints.SolveDelta), reporting what it reused in
//     DeltaStats;
//   - per-stage metrics (Stats) for every result.
//
// internal/mhp.Analyze, internal/experiments and cmd/mhpbench all run
// through this package; it is the seam the analysis service
// (internal/server) builds on.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fx10/internal/constraints"
	"fx10/internal/intset"
	"fx10/internal/labels"
	"fx10/internal/parser"
	"fx10/internal/sumstore"
	"fx10/internal/syntax"
)

// Config configures an Engine. The zero value is a usable default:
// topo strategy, GOMAXPROCS workers, a 128-entry cache.
type Config struct {
	// Strategy names a registered solver strategy; empty selects
	// DefaultStrategy.
	Strategy string
	// Workers bounds corpus-level concurrency; ≤ 0 selects
	// GOMAXPROCS.
	Workers int
	// CacheSize bounds the program-tier result cache in entries. 0
	// selects the default (128); negative disables caching entirely
	// — both tiers — (every request re-solves — what
	// timing-sensitive callers like the figure tables and benchmarks
	// want).
	CacheSize int
	// SummaryCacheSize bounds the method-summary tier in entries. 0
	// selects the default (512); negative disables just this tier.
	// The tier is also disabled whenever CacheSize is negative.
	SummaryCacheSize int
	// SummaryStorePath names a directory for the persistent
	// content-addressed summary store (internal/sumstore) — the disk
	// tier below the method-summary cache, which then acts as its
	// write-through memory tier. Summaries survive restarts and can be
	// shared between engines: a content-hash hit in any engine's store
	// is the same summary everywhere. Empty disables the disk tier;
	// it is also disabled when the summary tier itself is. Engines
	// with a store should be Closed to flush it.
	SummaryStorePath string
	// SummaryStoreShared opens the summary store in multi-process
	// mode (sumstore.OpenShared): appends serialize under an advisory
	// file lock and read misses re-scan the log tail, so a fleet of
	// daemons can share one store directory and any replica can seed
	// any delta. Ignored when SummaryStorePath is empty.
	SummaryStoreShared bool
}

const (
	defaultCacheSize        = 128
	defaultSummaryCacheSize = 512
)

// Engine runs analyses. It is safe for concurrent use; one Engine is
// meant to be shared and reused so its caches pay off.
type Engine struct {
	strategy  Strategy
	workers   int
	cache     *resultCache    // program tier; nil when caching is disabled
	summaries *summaryCache   // method-summary tier; nil when disabled
	store     *sumstore.Store // disk tier below summaries; nil when disabled

	hits, misses       atomic.Uint64
	sumHits, sumMisses atomic.Uint64
	// sumSkipped counts summary-tier probes for clocked programs,
	// which both tiers exclude by design (the phase analysis makes a
	// method's summary depend on whole-program context the content
	// hash ignores). Counting them separately keeps the hit rate
	// honest over mixed clocked/unclocked corpora.
	sumSkipped atomic.Uint64
}

// New builds an Engine, resolving the configured strategy name.
func New(cfg Config) (*Engine, error) {
	strat, err := Lookup(cfg.Strategy)
	if err != nil {
		return nil, err
	}
	return newEngine(cfg, strat)
}

// newEngine builds an Engine around an already resolved strategy.
func newEngine(cfg Config, strat Strategy) (*Engine, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{strategy: strat, workers: workers}
	switch {
	case cfg.CacheSize == 0:
		e.cache = newResultCache(defaultCacheSize)
	case cfg.CacheSize > 0:
		e.cache = newResultCache(cfg.CacheSize)
	}
	if e.cache != nil && cfg.SummaryCacheSize >= 0 {
		size := cfg.SummaryCacheSize
		if size == 0 {
			size = defaultSummaryCacheSize
		}
		e.summaries = newSummaryCache(size)
		if cfg.SummaryStorePath != "" {
			open := sumstore.Open
			if cfg.SummaryStoreShared {
				open = sumstore.OpenShared
			}
			store, err := open(cfg.SummaryStorePath)
			if err != nil {
				return nil, err
			}
			e.store = store
		}
	}
	return e, nil
}

// Close flushes and closes the persistent summary store, if any. An
// engine without a store needs no Close; calling it anyway is a no-op.
func (e *Engine) Close() error {
	if e.store == nil {
		return nil
	}
	return e.store.Close()
}

// MustNew is New, panicking on error — for wiring with known-good
// configs.
func MustNew(cfg Config) *Engine {
	e, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Strategy returns the engine's resolved solver strategy.
func (e *Engine) Strategy() Strategy { return e.strategy }

// Workers returns the engine's corpus concurrency bound.
func (e *Engine) Workers() int { return e.workers }

// CacheStats returns the engine's cumulative cache traffic across
// both tiers (zero when caching is disabled).
func (e *Engine) CacheStats() CacheStats {
	return CacheStats{
		Hits:           e.hits.Load(),
		Misses:         e.misses.Load(),
		SummaryHits:    e.sumHits.Load(),
		SummaryMisses:  e.sumMisses.Load(),
		SummarySkipped: e.sumSkipped.Load(),
	}
}

// SummaryStoreStats returns the persistent summary store's counters;
// ok is false when the engine has no disk tier.
func (e *Engine) SummaryStoreStats() (sumstore.Stats, bool) {
	if e.store == nil {
		return sumstore.Stats{}, false
	}
	return e.store.Stats(), true
}

// Job is one analysis request.
type Job struct {
	// Name tags the job in errors and reports (optional).
	Name string
	// Program is the program to analyze. If nil, Source is parsed.
	Program *syntax.Program
	// Source is concrete FX10 syntax, used only when Program is nil.
	Source string
	// Mode selects context-sensitive (zero value) or
	// context-insensitive analysis.
	Mode constraints.Mode
}

// pipelineCore is the output of the expensive stages (labels,
// generation, solving). It is immutable once built and is what the
// cache stores; Program is the program the maps of Sys are keyed by,
// which on a cache hit may be a different (content-identical) value
// than the one the caller supplied.
type pipelineCore struct {
	program *syntax.Program
	info    *labels.Info
	sys     *constraints.System
	sol     *constraints.Solution
}

// Result is one completed analysis.
type Result struct {
	// Program, Info, Sys and Sol are the pipeline's intermediate
	// products. On a cache hit they are shared with every other
	// Result served from the same entry — treat them as read-only.
	// Sol holds the type environment E with ⊢ p : E (Theorem 4):
	// read a method's summary in place with Sol.PairLen and
	// Sol.SetValue, or materialize E with Sol.Env().
	Program *syntax.Program
	Info    *labels.Info
	Sys     *constraints.System
	Sol     *constraints.Solution
	// M is E(main).M: by Theorem 3, MHP(p) ⊆ M. Freshly extracted
	// per request (the caller owns it).
	M *intset.PairSet
	// Stats is where the time went.
	Stats Stats
}

// Analyze runs the pipeline for one job: cache lookup, then the
// missing stages, then report extraction.
func (e *Engine) Analyze(job Job) (*Result, error) {
	return e.AnalyzeCtx(context.Background(), job)
}

// AnalyzeCtx is Analyze with cooperative cancellation: ctx is checked
// between pipeline stages and, with the built-in strategies, every
// constraints.CancelStride evaluations inside the solver loops. On
// cancellation it returns ctx's error, caches nothing, and leaves
// both cache tiers exactly as they were — an abandoned request can
// never poison a future one.
func (e *Engine) AnalyzeCtx(ctx context.Context, job Job) (*Result, error) {
	start := time.Now()

	p := job.Program
	var parseDur time.Duration
	if p == nil {
		t0 := time.Now()
		parsed, err := parser.Parse(job.Source)
		if err != nil {
			return nil, fmt.Errorf("engine: parse %s: %w", jobName(job), err)
		}
		p = parsed
		parseDur = time.Since(t0)
	}

	var (
		core  pipelineCore
		stats Stats
		key   cacheKey
	)
	if e.cache != nil {
		key = keyFor(p, job.Mode, e.strategy.Name())
	}
	if c, ok := e.cacheGet(key); ok {
		core, stats = c.core, c.stats
		stats.CacheHit = true
	} else {
		var err error
		core, stats, err = e.runPipeline(ctx, p, job.Mode)
		if err != nil {
			return nil, err
		}
		e.cachePut(key, cached{core: core, stats: stats})
	}

	stats.Parse = parseDur
	return core.result(stats, start), nil
}

// result is the per-request view of core: M is freshly extracted (the
// caller owns it), everything else is shared with the cache entry.
// It completes stats with the extraction time and the request total.
func (c pipelineCore) result(stats Stats, start time.Time) *Result {
	t0 := time.Now()
	res := &Result{Program: c.program, Info: c.info, Sys: c.sys, Sol: c.sol, M: c.sol.MainM()}
	stats.Report = time.Since(t0)
	stats.Total = time.Since(start)
	res.Stats = stats
	return res
}

// runPipeline executes the expensive stages on a cache miss.
func (e *Engine) runPipeline(ctx context.Context, p *syntax.Program, mode constraints.Mode) (pipelineCore, Stats, error) {
	stats := Stats{Strategy: e.strategy.Name()}

	t0 := time.Now()
	info := labels.Compute(p)
	stats.Labels = time.Since(t0)

	if err := ctx.Err(); err != nil {
		return pipelineCore{}, Stats{}, err
	}

	t0 = time.Now()
	sys := constraints.Generate(info, mode)
	stats.Generate = time.Since(t0)

	t0 = time.Now()
	sol, err := solveWith(ctx, e.strategy, sys)
	if err != nil {
		return pipelineCore{}, Stats{}, err
	}
	stats.Solve = time.Since(t0)

	stats.IterSlabels = sol.IterSlabels
	stats.IterL1 = sol.IterL1
	stats.IterL2 = sol.IterL2
	stats.Evaluations = sol.Evaluations
	stats.AllocBytes = sol.AllocBytes
	stats.FootprintBytes = sol.FootprintBytes

	e.storeSummaries(p, sol, mode)
	return pipelineCore{program: p, info: info, sys: sys, sol: sol}, stats, nil
}

func (e *Engine) cacheGet(key cacheKey) (cached, bool) {
	if e.cache == nil {
		return cached{}, false
	}
	c, ok := e.cache.get(key)
	if ok {
		e.hits.Add(1)
	} else {
		e.misses.Add(1)
	}
	return c, ok
}

func (e *Engine) cachePut(key cacheKey, c cached) {
	if e.cache != nil {
		e.cache.put(key, c)
	}
}

func jobName(job Job) string {
	if job.Name != "" {
		return job.Name
	}
	return "<unnamed program>"
}

// CorpusResult is one slot of an AnalyzeCorpus sweep: the result, or
// the error (including recovered panics) that prevented it.
type CorpusResult struct {
	Job    Job
	Result *Result
	Err    error
}

// AnalyzeCorpus analyzes every job on a bounded worker pool
// (Config.Workers wide) and returns the outcomes in input order. A
// job that panics — a malformed program tripping an invariant deep in
// the pipeline — is reported as that slot's Err; the sweep continues.
func (e *Engine) AnalyzeCorpus(jobs []Job) []CorpusResult {
	results := make([]CorpusResult, len(jobs))
	workers := e.workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for i, job := range jobs {
			results[i] = e.analyzeIsolated(job)
		}
		return results
	}

	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = e.analyzeIsolated(jobs[i])
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	return results
}

// analyzeIsolated is Analyze behind a recover barrier.
func (e *Engine) analyzeIsolated(job Job) (cr CorpusResult) {
	cr.Job = job
	cr.Result, cr.Err = e.AnalyzeSafe(context.Background(), job)
	return cr
}

// AnalysisError reports a failure of the analysis itself — a panic
// tripped deep in the pipeline by a malformed program, as opposed to
// a parse error (which unwraps to *parser.Error) or a cancellation
// (which unwraps to the context error). Callers use it to map
// failures onto distinct exit codes and HTTP statuses.
type AnalysisError struct {
	// Name is the job name the failure is attributed to.
	Name string
	// Value is the recovered panic value, or the wrapped error.
	Value any
}

func (e *AnalysisError) Error() string {
	return fmt.Sprintf("engine: panic analyzing %s: %v", e.Name, e.Value)
}

// Unwrap exposes a wrapped error value to errors.Is/As.
func (e *AnalysisError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// AnalyzeSafe is AnalyzeCtx behind a recover barrier: a panic in the
// pipeline (a malformed program tripping an invariant) comes back as
// an *AnalysisError instead of unwinding the caller — what a
// long-lived server or a corpus sweep needs. Parse and context errors
// pass through unchanged.
func (e *Engine) AnalyzeSafe(ctx context.Context, job Job) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &AnalysisError{Name: jobName(job), Value: r}
		}
	}()
	return e.AnalyzeCtx(ctx, job)
}
