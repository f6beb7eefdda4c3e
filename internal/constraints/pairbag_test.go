package constraints

import (
	"math/rand"
	"testing"

	"fx10/internal/intset"
	"fx10/internal/syntax"
)

// TestCrossSymPhaseFilter checks the phase-filtered crossSym against a
// per-pair brute force, and an Lcross term against crossSym with the
// singleton set, on random operands and phase tables: unknown
// (-1) entries mixed with several known phases, a table with every
// phase unknown, one with every phase known, and a nil table. A pair
// (i, j) of symcross(A, B) is kept unless both phases are known and
// differ; the change report must match the brute force's too.
func TestCrossSymPhaseFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(150)
		var phase []int32
		switch trial % 4 {
		case 1: // nil: clock-free, no filtering
		case 2: // every phase unknown
			phase = make([]int32, n)
			for i := range phase {
				phase[i] = -1
			}
		default: // a mix of unknown and 1–4 known phases, or all known
			k := 1 + rng.Intn(4)
			phase = make([]int32, n)
			for i := range phase {
				phase[i] = int32(rng.Intn(k+1)) - 1
				if trial%4 == 3 && phase[i] < 0 {
					phase[i] = 0
				}
			}
		}
		a, b := randomLabels(rng, n), randomLabels(rng, n)

		got, want := intset.NewPairs(n), intset.NewPairs(n)
		for _, pre := range [][2]int{{rng.Intn(n), rng.Intn(n)}, {rng.Intn(n), rng.Intn(n)}} {
			got.AddSym(pre[0], pre[1])
			want.AddSym(pre[0], pre[1])
		}
		wantChanged := false
		a.Each(func(i int) {
			b.Each(func(j int) {
				if phase != nil && phase[i] >= 0 && phase[j] >= 0 && phase[i] != phase[j] {
					return
				}
				if want.AddSym(i, j) {
					wantChanged = true
				}
			})
		})
		if changed := crossSym(got, a, b, phase); changed != wantChanged {
			t.Fatalf("trial %d: crossSym changed=%v, brute force %v", trial, changed, wantChanged)
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: crossSym(%v, %v, %v) = %v, brute force %v", trial, a, b, phase, got, want)
		}
		if crossSym(got, a, b, phase) {
			t.Fatalf("trial %d: repeated crossSym reported change", trial)
		}

		// An Lcross term folds exactly what crossSym does for the
		// singleton operand {l}.
		l := rng.Intn(n)
		term, viaSet := intset.NewPairs(n), intset.NewPairs(n)
		pre := [2]int{rng.Intn(n), rng.Intn(n)}
		term.AddSym(pre[0], pre[1])
		viaSet.AddSym(pre[0], pre[1])
		wantChanged = crossSym(viaSet, intset.Of(n, l), b, phase)
		ct := CrossTerm{Kind: KLcross, Label: syntax.Label(l)}
		if changed := addCross(term, ct, b, phase); changed != wantChanged || !term.Equal(viaSet) {
			t.Fatalf("trial %d: Lcross(%d, %v) = %v (changed %v), crossSym({%d}, …) = %v (changed %v)",
				trial, l, b, term, changed, l, viaSet, wantChanged)
		}
	}
}

// randomLabels returns a random subset of {0,…,n-1}, empty about one
// time in eight.
func randomLabels(rng *rand.Rand, n int) *intset.Set {
	s := intset.New(n)
	if rng.Intn(8) == 0 {
		return s
	}
	density := []float64{0.02, 0.2, 0.6}[rng.Intn(3)]
	for e := 0; e < n; e++ {
		if rng.Float64() < density {
			s.Add(e)
		}
	}
	return s
}
