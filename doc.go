// Package fx10 is a Go reproduction of "Featherweight X10: A Core
// Calculus for Async-Finish Parallelism" (Lee and Palsberg, PPoPP
// 2010): the FX10 calculus and its small-step operational semantics,
// the may-happen-in-parallel type system and its constraint-based
// type inference (context-sensitive and context-insensitive), a
// goroutine-backed runtime, a language-agnostic front-end layer
// (internal/frontend) over the paper's condensed program form with
// two registered front ends — the X10 subset and real Go
// (internal/gofront: `go` statements lower to async,
// WaitGroup/errgroup join spans to finish, the rest skip-lowered
// conservatively with diagnostics, so `fx10 mhp main.go` analyzes
// ordinary Go), synthetic reconstructions of the paper's 13
// benchmarks, and harnesses regenerating Figures 5–9. The analysis
// runs through a unified engine with one production solver (topo,
// SCC-condensed topological propagation) and the paper's three-phase
// solver (phased, Section 5.3) as the reference it is checked
// against, a two-tier content-hash cache (whole-program results and
// cross-program method summaries, the latter optionally backed by a
// crash-safe persistent store (internal/sumstore) so summaries survive
// restarts and are shared across processes) and edit reports that
// name the methods a revision changed (engine.AnalyzeDelta), all
// differentially fuzzed against exact and observed parallelism and scale-tested on
// generated programs (internal/progen's huge tier). The engine also
// serves as a long-lived HTTP/JSON daemon (cmd/fx10d): admission-controlled solves,
// singleflight coalescing, batch corpus submission under one
// admission slot (/v1/batch), editor delta sessions, per-request
// language selection through the front-end registry, and live
// metrics including the summary store's warm-start hit rate; fx10d
// route turns N daemons into one fleet — consistent-hash routing on
// program content (internal/fleet), health-checked failover that is
// byte-invisible because replicas agree bit-for-bit, and a summary
// store shareable across processes (sumstore.OpenShared). Front
// ends are held to the analysis's soundness bar by a cross-front-end
// oracle (X10 and Go renderings of the same program must analyze
// bit-identically under every solving algorithm, and runtime-observed
// pairs on lowered Go must be contained in the static relation). The
// Section 8 clocks extension is analyzed, not just executed:
// per-label phase inference (internal/clocks) feeds phase-ordering
// facts into constraint solving, so barrier-separated pairs are
// pruned identically under every solving algorithm, with soundness
// fuzzed against an exhaustive barrier-semantics explorer and a
// clocked reference interpreter.
//
// Start at README.md for the tour, DESIGN.md for the system
// inventory, and EXPERIMENTS.md for paper-vs-measured results. The
// implementation lives under internal/; the executables are
// cmd/fx10, cmd/fx10d, cmd/x10c and cmd/mhpbench; runnable examples
// are under examples/.
package fx10
