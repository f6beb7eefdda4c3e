package intset

import (
	"math/rand"
	"testing"
)

// pairModel is the naive reference implementation the sparse PairSet is
// checked against: a map of ordered pairs with the set-theoretic
// definitions of AddSym, UnionWith and CrossSym written out directly.
type pairModel map[[2]int]bool

func (m pairModel) addSym(i, j int) bool {
	changed := !m[[2]int{i, j}] || !m[[2]int{j, i}]
	m[[2]int{i, j}] = true
	m[[2]int{j, i}] = true
	return changed
}

func (m pairModel) unionWith(o pairModel) bool {
	changed := false
	for k := range o {
		if !m[k] {
			m[k] = true
			changed = true
		}
	}
	return changed
}

func (m pairModel) crossSym(a, b []int) bool {
	changed := false
	for _, i := range a {
		for _, j := range b {
			if !m[[2]int{i, j}] {
				m[[2]int{i, j}] = true
				changed = true
			}
			if !m[[2]int{j, i}] {
				m[[2]int{j, i}] = true
				changed = true
			}
		}
	}
	return changed
}

func (m pairModel) equalPairSet(t *testing.T, p *PairSet) {
	t.Helper()
	if p.Len() != len(m) {
		t.Fatalf("Len() = %d, model has %d pairs", p.Len(), len(m))
	}
	for k := range m {
		if !p.Has(k[0], k[1]) {
			t.Fatalf("model pair (%d,%d) missing from PairSet", k[0], k[1])
		}
	}
}

// checkShape compares the queries that walk PairSet's chunk layout
// against the model: Each must visit exactly the model's pairs in
// row-major order, and Row and RowIntersects must agree on an absent
// row, the first and last rows, and a random row.
func (m pairModel) checkShape(t *testing.T, rng *rand.Rand, p *PairSet, n int) {
	t.Helper()
	var prev [2]int
	seen := 0
	p.Each(func(i, j int) {
		cur := [2]int{i, j}
		if seen > 0 && (cur[0] < prev[0] || cur[0] == prev[0] && cur[1] <= prev[1]) {
			t.Fatalf("Each visited %v after %v: not row-major", cur, prev)
		}
		if !m[cur] {
			t.Fatalf("Each visited %v, not in the model", cur)
		}
		prev = cur
		seen++
	})
	if seen != len(m) {
		t.Fatalf("Each visited %d pairs, model has %d", seen, len(m))
	}
	rows := map[int]bool{}
	for k := range m {
		rows[k[0]] = true
	}
	probe := []int{0, n - 1, rng.Intn(n)}
	for i := 0; i < n; i++ {
		if !rows[i] {
			probe = append(probe, i) // an absent row
			break
		}
	}
	b, _ := randomSet(rng, n, 0.3)
	for _, i := range probe {
		row := p.Row(i)
		want := false
		for j := 0; j < n; j++ {
			if row.Has(j) != m[[2]int{i, j}] {
				t.Fatalf("Row(%d).Has(%d) = %v, model %v", i, j, row.Has(j), m[[2]int{i, j}])
			}
			if m[[2]int{i, j}] && b.Has(j) {
				want = true
			}
		}
		if got := p.RowIntersects(i, b); got != want {
			t.Fatalf("RowIntersects(%d, %v) = %v, model %v", i, b, got, want)
		}
	}
}

// randomSet returns a random subset of {0,…,n-1} with the given
// density, as both a Set and its element slice. density 0 exercises
// the empty-operand fast paths.
func randomSet(rng *rand.Rand, n int, density float64) (*Set, []int) {
	s := New(n)
	var elems []int
	for e := 0; e < n; e++ {
		if rng.Float64() < density {
			s.Add(e)
			elems = append(elems, e)
		}
	}
	return s, elems
}

// TestPairSetPropertyModel drives PairSet.CrossSym, UnionWith and
// AddSym against the map model on seeded random set pairs across
// several universe sizes, including the empty-operand and self-cross
// edge cases the word-level fast paths special-case. Every operation's
// change report must agree with the model's, and the full contents
// must agree after every step.
func TestPairSetPropertyModel(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	universes := []int{1, 3, 17, 64, 65, 130}
	const rounds = 200

	for _, n := range universes {
		p := NewPairs(n)
		model := pairModel{}
		for round := 0; round < rounds; round++ {
			// Density 0 forces empty operands regularly.
			density := []float64{0, 0.05, 0.3, 0.9}[rng.Intn(4)]
			a, aElems := randomSet(rng, n, density)
			b, bElems := randomSet(rng, n, []float64{0, 0.1, 0.5}[rng.Intn(3)])

			switch rng.Intn(9) {
			case 0: // symmetric cross of two fresh sets
				got := p.CrossSym(a, b)
				want := model.crossSym(aElems, bElems)
				if got != want {
					t.Fatalf("n=%d round=%d: CrossSym changed=%v, model=%v", n, round, got, want)
				}
			case 1: // self-cross: A × A
				got := p.CrossSym(a, a)
				want := model.crossSym(aElems, aElems)
				if got != want {
					t.Fatalf("n=%d round=%d: self CrossSym changed=%v, model=%v", n, round, got, want)
				}
				// Repeating the identical call must hit the memo fast
				// path and report no change.
				if p.CrossSym(a, a) {
					t.Fatalf("n=%d round=%d: repeated self CrossSym reported change", n, round)
				}
			case 2: // AddSym of a random pair
				i, j := rng.Intn(n), rng.Intn(n)
				got := p.AddSym(i, j)
				want := model.addSym(i, j)
				if got != want {
					t.Fatalf("n=%d round=%d: AddSym(%d,%d) changed=%v, model=%v", n, round, i, j, got, want)
				}
			case 3: // UnionWith an independently-built pair set
				q := NewPairs(n)
				qModel := pairModel{}
				q.CrossSym(a, b)
				qModel.crossSym(aElems, bElems)
				got := p.UnionWith(q)
				want := model.unionWith(qModel)
				if got != want {
					t.Fatalf("n=%d round=%d: UnionWith changed=%v, model=%v", n, round, got, want)
				}
			case 4: // cross, mutate an operand, cross again: the memo
				// must observe the generation bump and redo the work.
				p.CrossSym(a, b)
				model.crossSym(aElems, bElems)
				e := rng.Intn(n)
				if a.Add(e) {
					aElems = append(aElems, e)
				}
				got := p.CrossSym(a, b)
				want := model.crossSym(aElems, bElems)
				if got != want {
					t.Fatalf("n=%d round=%d: post-mutation CrossSym changed=%v, model=%v", n, round, got, want)
				}
			case 5: // ordered Adds in descending order: every insert
				// lands before existing chunks, never an append.
				for k := 0; k < 8; k++ {
					i, j := n-1-rng.Intn(n), n-1-rng.Intn(n)
					key := [2]int{i, j}
					if got, want := p.Add(i, j), !model[key]; got != want {
						t.Fatalf("n=%d round=%d: Add(%d,%d) changed=%v, model=%v", n, round, i, j, got, want)
					}
					model[key] = true
				}
			case 6: // UnionWith and Equal against a set over a larger
				// universe holding the same labels.
				q := NewPairs(n + 1 + rng.Intn(70))
				qModel := pairModel{}
				q.CrossSym(growSet(a, q.Universe()), growSet(b, q.Universe()))
				qModel.crossSym(aElems, bElems)
				got := p.UnionWith(q)
				want := model.unionWith(qModel)
				if got != want {
					t.Fatalf("n=%d round=%d: cross-universe UnionWith changed=%v, model=%v", n, round, got, want)
				}
				c := NewPairs(n + 64)
				c.UnionWith(p)
				if !c.Equal(p) || !p.Equal(c) || !p.SubsetOf(c) || !c.SubsetOf(p) {
					t.Fatalf("n=%d round=%d: copy over universe %d not Equal", n, round, c.Universe())
				}
				if c.AddSym(n, n) && (c.Equal(p) || c.SubsetOf(p)) {
					t.Fatalf("n=%d round=%d: Equal/SubsetOf ignore a pair outside p's universe", n, round)
				}
			case 7: // Clone is independent and Equal
				c := p.Clone()
				if !c.Equal(p) {
					t.Fatalf("n=%d round=%d: Clone not Equal", n, round)
				}
				c.AddSym(rng.Intn(n), rng.Intn(n))
				model.equalPairSet(t, p)
			case 8: // Remap through a permutation into a larger
				// universe, which reorders rows and columns; then a
				// map that rejects one label.
				m := n + rng.Intn(10)
				perm := rng.Perm(m)
				r, ok := p.Remap(m, func(l int) (int, bool) { return perm[l], true })
				want := pairModel{}
				for k := range model {
					want[[2]int{perm[k[0]], perm[k[1]]}] = true
				}
				if !ok {
					t.Fatalf("n=%d round=%d: Remap rejected a total map", n, round)
				}
				want.equalPairSet(t, r)
				want.checkShape(t, rng, r, m)
				bad := rng.Intn(n)
				_, ok = p.Remap(n, func(l int) (int, bool) { return l, l != bad })
				used := false
				for k := range model {
					used = used || k[0] == bad || k[1] == bad
				}
				if ok == used {
					t.Fatalf("n=%d round=%d: Remap rejecting %d reported ok=%v", n, round, bad, ok)
				}
			}
			model.equalPairSet(t, p)
			model.checkShape(t, rng, p, n)
		}
	}
}

// growSet returns a copy of s over the larger universe m.
func growSet(s *Set, m int) *Set {
	g := New(m)
	s.Each(func(e int) { g.Add(e) })
	return g
}

// TestPairSetCrossSymMemoInvalidation pins the memo's correctness
// conditions one by one: a repeat call is elided, a generation bump
// re-enables it, operand order is symmetric, and Clear invalidates.
func TestPairSetCrossSymMemoInvalidation(t *testing.T) {
	const n = 70
	a := Of(n, 1, 5, 64)
	b := Of(n, 2, 69)
	p := NewPairs(n)

	if !p.CrossSym(a, b) {
		t.Fatal("first CrossSym reported no change")
	}
	if p.CrossSym(a, b) {
		t.Fatal("identical repeat CrossSym reported change")
	}
	if p.CrossSym(b, a) {
		t.Fatal("swapped-operand repeat CrossSym reported change")
	}
	a.Add(7)
	if !p.CrossSym(a, b) {
		t.Fatal("CrossSym after operand mutation reported no change")
	}
	if !p.Has(7, 2) || !p.Has(2, 7) {
		t.Fatal("pairs from mutated operand missing")
	}
	p.Clear()
	if p.Len() != 0 {
		t.Fatalf("Len after Clear = %d", p.Len())
	}
	if !p.CrossSym(a, b) {
		t.Fatal("CrossSym after Clear hit a stale memo")
	}
}

// TestSetCountInvariants checks the incrementally-maintained
// population count against recomputation across every mutating op.
func TestSetCountInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	recount := func(s *Set) int {
		c := 0
		s.Each(func(int) { c++ })
		return c
	}
	for _, n := range []int{1, 64, 100} {
		s := New(n)
		o, _ := randomSet(rng, n, 0.4)
		for i := 0; i < 300; i++ {
			switch rng.Intn(6) {
			case 0:
				s.Add(rng.Intn(n))
			case 1:
				s.Remove(rng.Intn(n))
			case 2:
				s.UnionWith(o)
			case 3:
				s.IntersectWith(o)
			case 4:
				s.DifferenceWith(o)
			case 5:
				s.Clear()
			}
			if s.Len() != recount(s) {
				t.Fatalf("n=%d: cached Len %d != recount %d", n, s.Len(), recount(s))
			}
			if s.Empty() != (recount(s) == 0) {
				t.Fatalf("n=%d: Empty() inconsistent", n)
			}
		}
	}
}

// TestNewBatch checks slab-backed sets behave like independent sets.
func TestNewBatch(t *testing.T) {
	sets := NewBatch(100, 5)
	if len(sets) != 5 {
		t.Fatalf("len = %d", len(sets))
	}
	sets[0].Add(3)
	sets[1].Add(99)
	for i, s := range sets {
		if s.Universe() != 100 {
			t.Fatalf("set %d universe %d", i, s.Universe())
		}
	}
	if sets[0].Has(99) || sets[1].Has(3) || !sets[0].Has(3) || !sets[1].Has(99) {
		t.Fatal("batch sets share bits")
	}
	if sets[2].Len() != 0 {
		t.Fatal("untouched batch set non-empty")
	}
	if NewBatch(4, 0) != nil {
		t.Fatal("NewBatch(n, 0) != nil")
	}
}
