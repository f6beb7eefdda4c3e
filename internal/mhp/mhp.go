// Package mhp is the front door of the may-happen-in-parallel
// analysis: it wires together the Slabels fixpoint, constraint
// generation and solving, and exposes the results the paper reports —
// label-pair queries, the async-body pair classification of Figure 8
// (self / same / diff), race candidates (the analysis's motivating
// client), and false-positive counting against the exact relation.
package mhp

import (
	"fx10/internal/clocks"
	"fx10/internal/constraints"
	"fx10/internal/engine"
	"fx10/internal/explore"
	"fx10/internal/intset"
	"fx10/internal/syntax"
)

// Result is a completed analysis of one program: the engine's result
// (its fields, M = E(main).M included, read through the embedding)
// plus the paper's report API.
type Result struct {
	*engine.Result
}

// analyzeEngine serves Analyze. Caching is off: Analyze's contract
// is one fresh pipeline run per call (benchmarks iterate it to
// measure solving); callers that want corpus pooling or cached
// re-analysis use internal/engine directly.
var analyzeEngine = engine.MustNew(engine.Config{CacheSize: -1})

// Analyze runs the full pipeline on p in the given mode. It is a
// thin compatibility wrapper over internal/engine with the default
// (topo) strategy. Pipeline failures are returned, not panicked:
// library callers decide how to surface them.
func Analyze(p *syntax.Program, mode constraints.Mode) (*Result, error) {
	res, err := analyzeEngine.Analyze(engine.Job{Program: p, Mode: mode})
	if err != nil {
		return nil, err
	}
	return FromEngine(res), nil
}

// MustAnalyze is Analyze, panicking on error — for tests, examples
// and benchmarks wired with known-good programs.
func MustAnalyze(p *syntax.Program, mode constraints.Mode) *Result {
	r, err := Analyze(p, mode)
	if err != nil {
		panic(err)
	}
	return r
}

// AnalyzeDelta analyzes edited, a revision of base's program, in
// base's mode, and reports in the DeltaStats which methods the edit
// changed (engine.AnalyzeDelta). The returned Result is identical to
// Analyze(edited, mode).
func AnalyzeDelta(base *Result, edited *syntax.Program) (*Result, engine.DeltaStats, error) {
	res, err := analyzeEngine.AnalyzeDelta(base.Result, edited)
	if err != nil {
		return nil, engine.DeltaStats{}, err
	}
	var ds engine.DeltaStats
	if res.Stats.Delta != nil {
		ds = *res.Stats.Delta
	}
	return FromEngine(res), ds, nil
}

// FromEngine adapts an engine result to the mhp report API.
func FromEngine(res *engine.Result) *Result {
	return &Result{res}
}

// MayHappenInParallel reports whether the analysis says the
// instructions labeled l1 and l2 may happen in parallel.
func (r *Result) MayHappenInParallel(l1, l2 syntax.Label) bool {
	return r.M.Has(int(l1), int(l2))
}

// ParallelWith returns the labels the analysis pairs with l, in label
// order.
func (r *Result) ParallelWith(l syntax.Label) []syntax.Label {
	var out []syntax.Label
	r.M.Row(int(l)).Each(func(e int) { out = append(out, syntax.Label(e)) })
	return out
}

// Category classifies an async-body pair as in Figure 8.
type Category int

const (
	// Self: an async body may happen in parallel with itself
	// (typically an async in a loop without an enclosing finish).
	Self Category = iota
	// Same: two different async bodies in the same method.
	Same
	// Diff: two async bodies in different methods.
	Diff
)

func (c Category) String() string {
	switch c {
	case Self:
		return "self"
	case Same:
		return "same"
	case Diff:
		return "diff"
	}
	return "?"
}

// AsyncPair is one pair of async bodies that may happen in parallel.
// A and B are the labels of the async instructions (A ≤ B).
type AsyncPair struct {
	A, B     syntax.Label
	Category Category
}

// AsyncBodyPairs returns the pairs of async bodies that may happen in
// parallel according to M: bodies A and B pair iff some label of A's
// body may happen in parallel with some label of B's body. Pairs are
// returned in (A, B) label order.
func (r *Result) AsyncBodyPairs() []AsyncPair {
	return asyncBodyPairs(r.Program, r.M)
}

// asyncBodyPairs is the shared classification core, also used against
// ground-truth relations. A body is the labels syntactically inside
// an async — unlike Slabels it does not follow method calls, so two
// asyncs calling the same helper do not share body labels. This is
// the body notion the pair counts of Figure 8 are about: a pair of
// async *bodies*.
//
// It makes one pass over m. The bodies enclosing a label are the
// chain of its innermost enclosing async (LabelInfo.AsyncBody), that
// async's own enclosing async, and so on; a pair (i, j) of m pairs
// every body on i's chain with every body on j's chain.
func asyncBodyPairs(p *syntax.Program, m *intset.PairSet) []AsyncPair {
	asyncs := p.AsyncLabels()
	index := make([]int32, p.NumLabels()) // async label → position in asyncs
	for k, a := range asyncs {
		index[a] = int32(k)
	}
	// partners[k] holds the async indices k' ≥ k whose body pairs
	// with body k.
	partners := make([]*intset.Set, len(asyncs))
	total := 0
	m.Each(func(i, j int) {
		for a := p.Labels[i].AsyncBody; a != syntax.NoLabel; a = p.Labels[a].AsyncBody {
			ka := index[a]
			for b := p.Labels[j].AsyncBody; b != syntax.NoLabel; b = p.Labels[b].AsyncBody {
				if kb := index[b]; kb >= ka {
					if partners[ka] == nil {
						partners[ka] = intset.New(len(asyncs))
					}
					if partners[ka].Add(int(kb)) {
						total++
					}
				}
			}
		}
	})
	if total == 0 {
		return nil
	}
	out := make([]AsyncPair, 0, total)
	for ka, ps := range partners {
		if ps == nil {
			continue
		}
		a := asyncs[ka]
		ps.Each(func(kb int) {
			b := asyncs[kb]
			cat := Diff
			switch {
			case ka == kb:
				cat = Self
			case p.Labels[a].Method == p.Labels[b].Method:
				cat = Same
			}
			out = append(out, AsyncPair{A: a, B: b, Category: cat})
		})
	}
	return out
}

// PairCounts is the Figure 8 pair-count row.
type PairCounts struct {
	Total, Self, Same, Diff int
}

// CountPairs tallies async-body pairs by category.
func CountPairs(pairs []AsyncPair) PairCounts {
	c := PairCounts{Total: len(pairs)}
	for _, p := range pairs {
		switch p.Category {
		case Self:
			c.Self++
		case Same:
			c.Same++
		case Diff:
			c.Diff++
		}
	}
	return c
}

// RaceCandidate is a potential data race: two instructions that may
// happen in parallel and access the same array index, at least one of
// them writing.
type RaceCandidate struct {
	L1, L2     syntax.Label
	Index      int
	WriteWrite bool // both sides write
}

// RaceCandidates reports the potential data races implied by M, in
// deterministic order. This is the "basis for race detectors" client
// the paper motivates: MHP ∧ same index ∧ a write.
//
// Candidates are sorted by (L1, L2, Index), where L1 is the access
// that comes first in EachInstr order (method, then source order).
func (r *Result) RaceCandidates() []RaceCandidate {
	return raceCandidates(r.Program, r.M)
}

// access is one instruction's array accesses: an assignment writes
// one index and may read one, a while guard reads one; -1 is none.
// pos is the instruction's EachInstr position, -1 for instructions
// that touch no array.
type access struct {
	pos, write, read int32
}

// raceCandidates makes one pass over m. Each ordered pair (i, j) with
// both ends accesses is taken in the orientation where i comes first
// in EachInstr order, so row-major order already is (L1, L2) order.
func raceCandidates(p *syntax.Program, m *intset.PairSet) []RaceCandidate {
	accs := make([]access, p.NumLabels())
	for l := range accs {
		accs[l].pos = -1
	}
	var pos int32
	p.EachInstr(func(_ int, i syntax.Instr) {
		switch i := i.(type) {
		case *syntax.Assign:
			a := access{pos: pos, write: int32(i.D), read: -1}
			if plus, ok := i.Rhs.(syntax.Plus); ok {
				a.read = int32(plus.D)
			}
			accs[i.L] = a
			pos++
		case *syntax.While:
			accs[i.L] = access{pos: pos, write: -1, read: int32(i.D)}
			pos++
		}
	})
	var out []RaceCandidate
	m.Each(func(i, j int) {
		a, b := accs[i], accs[j]
		if a.pos < 0 || b.pos < 0 || a.pos > b.pos {
			return
		}
		out = appendRaces(out, syntax.Label(i), syntax.Label(j), a, b)
	})
	return out
}

// appendRaces appends the indices where a and b conflict — write/write,
// or write/read in either direction — in index order, once each; a
// write/write conflict wins over a write/read one on the same index.
func appendRaces(out []RaceCandidate, l1, l2 syntax.Label, a, b access) []RaceCandidate {
	// a's write against b's write or read; b's write against a's
	// read, unless that is the index already reported.
	wa := a.write >= 0 && (a.write == b.write || a.write == b.read)
	wb := b.write >= 0 && b.write == a.read && !(wa && b.write == a.write)
	x := RaceCandidate{L1: l1, L2: l2, Index: int(a.write), WriteWrite: a.write == b.write}
	y := RaceCandidate{L1: l1, L2: l2, Index: int(b.write)}
	switch {
	case wa && wb && y.Index < x.Index:
		return append(out, y, x)
	case wa && wb:
		return append(out, x, y)
	case wa:
		return append(out, x)
	case wb:
		return append(out, y)
	}
	return out
}

// FalsePositiveReport compares the analysis against the exact
// relation computed by exhaustive exploration (Section 6's
// methodology).
type FalsePositiveReport struct {
	// Complete is false if exploration ran out of budget; the counts
	// are then upper bounds on precision, not exact.
	Complete bool
	// ExactPairs / InferredPairs are the async-body pair counts under
	// the exact and inferred relations.
	ExactPairs    []AsyncPair
	InferredPairs []AsyncPair
	// FalsePositives are inferred async-body pairs absent from the
	// exact relation.
	FalsePositives []AsyncPair
	// SoundnessHolds reports exact ⊆ inferred on raw label pairs
	// (Theorem 3); false would indicate an implementation bug.
	SoundnessHolds bool
}

// CheckFalsePositives explores up to maxStates states and classifies
// the inferred async-body pairs against the exact relation. Clocked
// programs are explored under the real barrier semantics
// (clocks.Explore): the analysis prunes phase-ordered pairs, so the
// erased exact relation — a strict superset of the clocked one — would
// wrongly flag the pruning as a soundness violation.
func (r *Result) CheckFalsePositives(a0 []int64, maxStates int) FalsePositiveReport {
	var exactM *intset.PairSet
	var complete bool
	if r.Program.UsesClocks() {
		res := clocks.Explore(r.Program, a0, maxStates)
		exactM, complete = res.MHP, res.Complete
	} else {
		res := explore.MHPWithInfo(r.Info, r.Program, a0, maxStates)
		exactM, complete = res.MHP, res.Complete
	}
	rep := FalsePositiveReport{
		Complete:       complete,
		ExactPairs:     asyncBodyPairs(r.Program, exactM),
		InferredPairs:  r.AsyncBodyPairs(),
		SoundnessHolds: !complete || exactM.SubsetOf(r.M),
	}
	exact := map[[2]syntax.Label]bool{}
	for _, pr := range rep.ExactPairs {
		exact[[2]syntax.Label{pr.A, pr.B}] = true
	}
	for _, pr := range rep.InferredPairs {
		if !exact[[2]syntax.Label{pr.A, pr.B}] {
			rep.FalsePositives = append(rep.FalsePositives, pr)
		}
	}
	return rep
}
