package constraints

import (
	"fx10/internal/intset"
)

// crossSym adds (A × B) ∪ (B × A) to p and reports change, skipping
// pairs the phase analysis proves ordered: when phase[i] and phase[j]
// are both known and different, the single clock serializes them and
// they can never run in parallel. phase is nil for clock-free programs
// (no filtering). This is the ONE place pairs enter the level-2
// system — level 2 is otherwise pure union — so filtering here makes
// every solving strategy (and the delta solver) compute exactly the
// phase-refined least solution, preserving cross-strategy
// bit-identity.
//
// With phases, each operand is split into its unknown-phase part and
// one part per known phase, and the kept pairs are exactly
// CrossSym(A_unk, B) ∪ CrossSym(A, B_unk) ∪ ⋃_φ CrossSym(A_φ, B_φ).
func crossSym(p *intset.PairSet, a, b *intset.Set, phase []int32) bool {
	if phase == nil || a.Empty() || b.Empty() {
		return p.CrossSym(a, b)
	}
	aUnk, aBy := splitByPhase(a, phase)
	bUnk, bBy := splitByPhase(b, phase)
	changed := p.CrossSym(aUnk, b)
	if p.CrossSym(a, bUnk) {
		changed = true
	}
	for φ, aφ := range aBy {
		if bφ := bBy[φ]; bφ != nil && p.CrossSym(aφ, bφ) {
			changed = true
		}
	}
	return changed
}

// addCross folds the cross term ct, whose variable has the value v,
// into p through the phase filter, and reports change. An Lcross term
// is a singleton cross: with phases, {l} × B keeps exactly B's labels
// of unknown phase or of l's phase, which is what crossSym keeps for
// A = {l}.
func addCross(p *intset.PairSet, ct CrossTerm, v *intset.Set, phase []int32) bool {
	if ct.Kind != KLcross {
		return crossSym(p, ct.Const, v, phase)
	}
	l := int(ct.Label)
	if phase == nil || phase[l] < 0 || v.Empty() {
		return p.CrossSymLabel(l, v)
	}
	kept := intset.New(v.Universe())
	v.Each(func(j int) {
		if phase[j] < 0 || phase[j] == phase[l] {
			kept.Add(j)
		}
	})
	return p.CrossSymLabel(l, kept)
}

// splitByPhase partitions s into its unknown-phase labels and one set
// per known phase code.
func splitByPhase(s *intset.Set, phase []int32) (*intset.Set, map[int32]*intset.Set) {
	n := s.Universe()
	unk := intset.New(n)
	by := map[int32]*intset.Set{}
	s.Each(func(i int) {
		φ := phase[i]
		if φ < 0 {
			unk.Add(i)
			return
		}
		if by[φ] == nil {
			by[φ] = intset.New(n)
		}
		by[φ].Add(i)
	})
	return unk, by
}
