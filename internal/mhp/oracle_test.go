package mhp

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"fx10/internal/clocks"
	"fx10/internal/constraints"
	"fx10/internal/explore"
	"fx10/internal/intset"
	"fx10/internal/parser"
	"fx10/internal/progen"
	"fx10/internal/syntax"
	"fx10/internal/workloads"
)

// The report clients make one pass over M. The definitions below are
// the direct, quadratic ones they replaced, kept as oracles: every
// pair of async bodies is tested for an M pair between them, and every
// pair of array accesses is looked up in M.

// bruteAsyncBodyPairs tests each pair of async bodies (A ≤ B in label
// order) for a pair of M from A's body × B's body.
func bruteAsyncBodyPairs(p *syntax.Program, m *intset.PairSet) []AsyncPair {
	asyncs := p.AsyncLabels()
	bodies := make([]*intset.Set, len(asyncs))
	for i, a := range asyncs {
		bodies[i] = intset.New(p.NumLabels())
		syntax.Body(p.Labels[a].Instr).EachDeep(func(in syntax.Instr) { bodies[i].Add(int(in.Label())) })
	}
	var out []AsyncPair
	for i, a := range asyncs {
		for j := i; j < len(asyncs); j++ {
			b := asyncs[j]
			found := false
			bodies[i].Each(func(x int) {
				if !found && m.RowIntersects(x, bodies[j]) {
					found = true
				}
			})
			if !found {
				continue
			}
			cat := Diff
			switch {
			case i == j:
				cat = Self
			case p.Labels[a].Method == p.Labels[b].Method:
				cat = Same
			}
			out = append(out, AsyncPair{A: a, B: b, Category: cat})
		}
	}
	return out
}

// bruteAccess is one instruction's array accesses.
type bruteAccess struct {
	label         syntax.Label
	reads, writes []int
}

// bruteRaceCandidates looks up every pair of accesses (the earlier one
// in EachInstr order first) in M and sorts the conflicts by (L1, L2,
// Index).
func bruteRaceCandidates(p *syntax.Program, m *intset.PairSet) []RaceCandidate {
	var accs []bruteAccess
	p.EachInstr(func(_ int, i syntax.Instr) {
		switch i := i.(type) {
		case *syntax.Assign:
			a := bruteAccess{label: i.L, writes: []int{i.D}}
			if plus, ok := i.Rhs.(syntax.Plus); ok {
				a.reads = append(a.reads, plus.D)
			}
			accs = append(accs, a)
		case *syntax.While:
			accs = append(accs, bruteAccess{label: i.L, reads: []int{i.D}})
		}
	})
	var out []RaceCandidate
	for i := range accs {
		for j := i; j < len(accs); j++ {
			a, b := accs[i], accs[j]
			if !m.Has(int(a.label), int(b.label)) {
				continue
			}
			// index → write/write; write/write wins over write/read.
			seen := map[int]bool{}
			for _, wa := range a.writes {
				for _, wb := range b.writes {
					if wa == wb {
						seen[wa] = true
					}
				}
				for _, rb := range b.reads {
					if _, ok := seen[wa]; !ok && wa == rb {
						seen[wa] = false
					}
				}
			}
			for _, wb := range b.writes {
				for _, ra := range a.reads {
					if _, ok := seen[wb]; !ok && wb == ra {
						seen[wb] = false
					}
				}
			}
			for idx, ww := range seen {
				out = append(out, RaceCandidate{L1: a.label, L2: b.label, Index: idx, WriteWrite: ww})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].L1 != out[j].L1 {
			return out[i].L1 < out[j].L1
		}
		if out[i].L2 != out[j].L2 {
			return out[i].L2 < out[j].L2
		}
		return out[i].Index < out[j].Index
	})
	return out
}

// checkAgainstBrute compares both one-pass clients with their oracles
// on one relation and returns the number of race candidates.
func checkAgainstBrute(t *testing.T, what string, p *syntax.Program, m *intset.PairSet) int {
	t.Helper()
	if got, want := asyncBodyPairs(p, m), bruteAsyncBodyPairs(p, m); !slices.Equal(got, want) {
		t.Errorf("%s: async-body pairs\n got %v\nwant %v", what, got, want)
	}
	got, want := raceCandidates(p, m), bruteRaceCandidates(p, m)
	if !slices.Equal(got, want) {
		t.Errorf("%s: race candidates\n got %v\nwant %v", what, got, want)
	}
	return len(want)
}

// TestReportClientsMatchBruteForce: on the 13 paper programs in both
// modes and on progen corpora, the one-pass async-body classification
// and race detector return exactly what the quadratic definitions do.
func TestReportClientsMatchBruteForce(t *testing.T) {
	modes := []constraints.Mode{constraints.ContextSensitive, constraints.ContextInsensitive}
	for _, wl := range workloads.All() {
		for _, mode := range modes {
			r := MustAnalyze(wl.Program(), mode)
			checkAgainstBrute(t, fmt.Sprintf("%s/%v", wl.Name, mode), r.Program, r.M)
		}
	}
	races := 0
	for _, c := range []struct {
		name string
		cfg  progen.Config
	}{{"default", progen.Default()}, {"clocked", progen.ClockedFinite()}} {
		for seed := int64(0); seed < 40; seed++ {
			p := progen.Generate(seed, c.cfg)
			for _, mode := range modes {
				r := MustAnalyze(p, mode)
				races += checkAgainstBrute(t, fmt.Sprintf("%s seed %d/%v", c.name, seed, mode), p, r.M)
			}
		}
	}
	if races == 0 {
		t.Error("no progen program has a race candidate; the race oracle check is vacuous")
	}
}

// TestRaceCandidatesMatchBruteForceRacy: programs built to race —
// the race-detector example's buggy reduction, read/write and
// write/write conflicts on one pair of instructions, and labels
// declared out of source order — agree with the oracle and have
// candidates.
func TestRaceCandidatesMatchBruteForceRacy(t *testing.T) {
	buggy := parser.MustParse(`
array 4;

void worker() {
  W: a[0] = a[0] + 1;
}

void main() {
  A1: async { worker(); }
  A2: async { worker(); }
  R: a[1] = a[0] + 1;
}
`)
	mixed := parser.MustParse(`
array 4;
void main() {
  L: while (a[3] != 0) {
    X: async { P: a[1] = a[2] + 1; Q: a[2] = a[1] + 1; }
    Y: async { U: a[2] = a[2] + 1; V: while (a[1] != 0) { Z: a[0] = 1; } }
  }
  G: a[1] = a[0] + 1;
}
`)
	// Labels allocated inner-first, so label order is not EachInstr
	// order: the candidate's L1 must still be the earlier access.
	b := syntax.NewBuilder(4)
	inner := b.Assign("IN", 0, syntax.Plus{D: 1})
	outer := b.Assign("OUT", 1, syntax.Plus{D: 0})
	b.MustAddMethod("main", b.Stmts(
		b.Async("A", b.Stmts(outer)),
		b.Async("B", b.Stmts(inner)),
	))
	reordered := b.MustProgram()

	for _, c := range []struct {
		name string
		p    *syntax.Program
	}{{"buggy", buggy}, {"mixed", mixed}, {"reordered", reordered}} {
		r := MustAnalyze(c.p, constraints.ContextSensitive)
		if n := checkAgainstBrute(t, c.name, c.p, r.M); n == 0 {
			t.Errorf("%s: no race candidates", c.name)
		}
	}
}

// TestAsyncBodyPairsExactRelation: CheckFalsePositives classifies the
// exact relation from exhaustive exploration with the same one-pass
// code; it agrees with the oracle there too, for clock-free and
// clocked programs.
func TestAsyncBodyPairsExactRelation(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  progen.Config
	}{{"finite", progen.Finite()}, {"clocked", progen.ClockedFinite()}} {
		for seed := int64(0); seed < 20; seed++ {
			p := progen.Generate(seed, c.cfg)
			r := MustAnalyze(p, constraints.ContextSensitive)
			var exact *intset.PairSet
			if p.UsesClocks() {
				exact = clocks.Explore(p, nil, 200_000).MHP
			} else {
				exact = explore.MHPWithInfo(r.Info, p, nil, 200_000).MHP
			}
			what := fmt.Sprintf("%s seed %d exact", c.name, seed)
			checkAgainstBrute(t, what, p, exact)
			rep := r.CheckFalsePositives(nil, 200_000)
			if want := bruteAsyncBodyPairs(p, exact); !slices.Equal(rep.ExactPairs, want) {
				t.Errorf("%s: CheckFalsePositives exact pairs\n got %v\nwant %v", what, rep.ExactPairs, want)
			}
		}
	}
}
