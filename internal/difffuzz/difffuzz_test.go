package difffuzz

import (
	"path/filepath"
	"strings"
	"testing"

	"fx10/internal/constraints"
	"fx10/internal/intset"
	"fx10/internal/progen"
	"fx10/internal/syntax"
)

// TestSweepClean is the core differential property: on a sweep of
// generated programs, observed ⊆ exact ⊆ static holds, all solver
// algorithms agree bitwise, and no progress violations occur.
func TestSweepClean(t *testing.T) {
	cfg := Config{Seeds: []int64{1}, N: 60, Runs: 2, MaxStates: 100_000, Incremental: true}
	if testing.Short() {
		cfg.N = 15
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Programs != cfg.N {
		t.Fatalf("programs = %d, want %d", rep.Programs, cfg.N)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.Complete == 0 {
		t.Error("no program explored completely; state budget too low for the generator config")
	}
	// Sanity on the stats: a finite-config sweep must see some real
	// parallelism end to end.
	var exact, static, observed int
	for _, s := range rep.Stats {
		exact += s.Exact
		static += s.Static
		observed += s.Observed
		if s.Complete && s.Precision < 0 {
			t.Errorf("seed %d: negative precision %d (static %d < exact %d)", s.Seed, s.Precision, s.Static, s.Exact)
		}
	}
	if observed == 0 || exact == 0 || static == 0 {
		t.Errorf("degenerate sweep: observed=%d exact=%d static=%d", observed, exact, static)
	}
	out := FormatReport(rep)
	for _, frag := range []string{"violations: none", "precision", "seed"} {
		if !strings.Contains(out, frag) {
			t.Errorf("report missing %q:\n%s", frag, out)
		}
	}
}

// TestSweepCleanClocked runs the differential property on the clocked
// corpus: observed (clocked interpreter) ⊆ exact (barrier-aware
// explorer) ⊆ static (phase-aware analysis), with no deadlocks or
// dynamic clock-use errors — the generator promises a clean corpus —
// and bit-identical answers across algorithms and delta re-analysis.
func TestSweepCleanClocked(t *testing.T) {
	cfg := Config{Seeds: []int64{11}, N: 60, Runs: 2, MaxStates: 100_000, Clocked: true, Incremental: true}
	if testing.Short() {
		cfg.N = 15
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s\n%s", v, syntax.Print(v.Program))
	}
	if rep.Complete == 0 {
		t.Error("no program explored completely; state budget too low for the generator config")
	}
	var exact, static, observed int
	for _, s := range rep.Stats {
		exact += s.Exact
		static += s.Static
		observed += s.Observed
		if s.Complete && s.Precision < 0 {
			t.Errorf("seed %d: negative precision %d (static %d < exact %d)", s.Seed, s.Precision, s.Static, s.Exact)
		}
	}
	if observed == 0 || exact == 0 || static == 0 {
		t.Errorf("degenerate sweep: observed=%d exact=%d static=%d", observed, exact, static)
	}
}

// TestMutationSelfTest proves the harness catches soundness bugs: an
// engine wrapper that drops pairs from M must be detected, and the
// minimizer must shrink a witness to at most 10 instructions.
func TestMutationSelfTest(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Seeds:      []int64{7},
		N:          40,
		Runs:       2,
		MaxStates:  100_000,
		Static:     UnsoundStatic(PipelineStatic),
		Minimize:   true,
		FailureDir: dir,
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var caught *Violation
	for _, v := range rep.Violations {
		// Prefer an exact-not-in-static witness: its reproduction is
		// deterministic (no schedule randomness), so the replay check
		// below cannot flake.
		if v.Kind == KindExactNotStatic {
			caught = v
			break
		}
		if caught == nil && v.Kind == KindObservedNotStatic {
			caught = v
		}
	}
	if caught == nil {
		t.Fatalf("unsound static analysis not caught in %d programs; violations: %v", rep.Programs, rep.Violations)
	}
	if caught.Minimized == nil {
		t.Fatal("violation was not minimized")
	}
	if n := CountInstrs(caught.Minimized); n > 10 {
		t.Errorf("minimized reproducer has %d instructions, want ≤ 10:\n%s", n, syntax.Print(caught.Minimized))
	}
	if caught.File == "" {
		t.Fatal("no reproducer file written")
	}
	corpus, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) == 0 {
		t.Fatal("written corpus did not load")
	}
	// The caught violation's written reproducer must reload
	// label-identically and still trip the mutated analysis.
	reloaded, ok := corpus[filepath.Base(caught.File)]
	if !ok {
		t.Fatalf("reproducer %s not in loaded corpus", caught.File)
	}
	if caught.Kind == KindExactNotStatic && !cfg.reproduces(caught.Kind, caught.Seed)(reloaded) {
		t.Errorf("reloaded reproducer no longer reproduces:\n%s", syntax.Print(reloaded))
	}
}

// TestStrategyDivergenceCaught checks the cross-algorithm oracle: a
// static function that answers differently per algorithm must be
// flagged.
func TestStrategyDivergenceCaught(t *testing.T) {
	// The second algorithm's answer gains a bogus self-pair on label 0,
	// so it over-approximates (no soundness violation) yet differs
	// bitwise from the reference.
	skew := func(p *syntax.Program, alg constraints.Algorithm) (*intset.PairSet, error) {
		m, err := PipelineStatic(p, alg)
		if err != nil {
			return nil, err
		}
		if alg == constraints.Algorithms()[1] {
			m = m.Clone()
			m.Add(0, 0)
		}
		return m, nil
	}
	rep, err := Run(Config{Seeds: []int64{3}, N: 5, Runs: 1, MaxStates: 50_000, Static: skew})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range rep.Violations {
		if v.Kind == KindStrategyDivergence {
			found = true
		}
	}
	if !found {
		t.Fatalf("divergent algorithms not flagged; violations: %v", rep.Violations)
	}
}

// TestMinimizeTrivialPredicate drives the minimizer with a purely
// structural predicate: the result must still satisfy it and be far
// smaller than the input.
func TestMinimizeTrivialPredicate(t *testing.T) {
	var p *syntax.Program
	for seed := int64(0); ; seed++ {
		p = progen.Generate(seed, progen.Finite())
		if len(p.AsyncLabels()) > 0 && CountInstrs(p) >= 6 {
			break
		}
	}
	pred := func(q *syntax.Program) bool { return len(q.AsyncLabels()) > 0 }
	m := Minimize(p, pred, 1000)
	if !pred(m) {
		t.Fatal("minimized program lost the property")
	}
	if n := CountInstrs(m); n > 3 {
		t.Errorf("minimized to %d instructions, want ≤ 3 (async + body skip + padding):\n%s", n, syntax.Print(m))
	}
	if err := syntax.Validate(m); err != nil {
		t.Fatalf("minimized program invalid: %v", err)
	}
}

// TestIRRoundTrip: the minimizer's mutable IR must rebuild programs
// losslessly (modulo label names).
func TestIRRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		p := progen.Generate(seed, progen.Default())
		q, err := fromProgram(p).toProgram()
		if err != nil {
			t.Fatalf("seed %d: rebuild failed: %v", seed, err)
		}
		if got, want := CountInstrs(q), CountInstrs(p); got != want {
			t.Fatalf("seed %d: instruction count %d != %d", seed, got, want)
		}
		if got, want := len(q.Methods), len(p.Methods); got != want {
			t.Fatalf("seed %d: method count %d != %d", seed, got, want)
		}
		if q.ArrayLen != p.ArrayLen {
			t.Fatalf("seed %d: array length %d != %d", seed, q.ArrayLen, p.ArrayLen)
		}
	}
}

// TestFailureCorpusReplays re-checks every committed reproducer with
// the real engine: the lattice must hold on each (the corpus contains
// witnesses of deliberately broken analyses, which the production
// analysis must handle cleanly).
func TestFailureCorpusReplays(t *testing.T) {
	corpus, err := LoadCorpus("../../testdata/fuzz-failures")
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) == 0 {
		t.Skip("no committed fuzz failures")
	}
	cfg := Config{Runs: 2, MaxStates: 200_000}.withDefaults()
	for name, p := range corpus {
		_, vs := checkProgram(cfg, p, 0)
		for _, v := range vs {
			t.Errorf("%s: real engine violates on committed reproducer: %s", name, v)
		}
	}
}

// TestIncrementalOracleFullCalculus runs the incremental oracle on
// full-calculus programs (loops, recursion-free call chains) where the
// Finite-config sweep of TestSweepClean cannot reach: every seeded
// single-method mutation must re-analyze identically under every
// algorithm and both modes.
func TestIncrementalOracleFullCalculus(t *testing.T) {
	cfg := Config{}.withDefaults()
	for seed := int64(200); seed < 220; seed++ {
		p := normalize(progen.Generate(seed, progen.Default()))
		for _, v := range checkIncremental(cfg, p, seed) {
			t.Errorf("seed %d: %s", seed, v)
		}
	}
}
