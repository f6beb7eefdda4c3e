package intset

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestPairAddHas(t *testing.T) {
	p := NewPairs(70)
	if p.Has(1, 2) {
		t.Fatalf("Has before Add")
	}
	if !p.Add(1, 2) {
		t.Fatalf("Add reported no change")
	}
	if p.Add(1, 2) {
		t.Fatalf("second Add reported change")
	}
	if !p.Has(1, 2) || p.Has(2, 1) {
		t.Fatalf("ordered Add should not add the mirror")
	}
	if p.Len() != 1 {
		t.Fatalf("Len = %d, want 1", p.Len())
	}
}

func TestPairAddSym(t *testing.T) {
	p := NewPairs(10)
	p.AddSym(3, 7)
	if !p.Has(3, 7) || !p.Has(7, 3) {
		t.Fatalf("AddSym missing an orientation")
	}
	if !p.Symmetric() {
		t.Fatalf("Symmetric() = false after AddSym")
	}
	p.AddSym(5, 5)
	if !p.Has(5, 5) {
		t.Fatalf("diagonal AddSym missing")
	}
	if p.Len() != 3 {
		t.Fatalf("Len = %d, want 3", p.Len())
	}
}

func TestPairHasOutOfRange(t *testing.T) {
	p := NewPairs(4)
	if p.Has(-1, 0) || p.Has(0, 4) || p.Has(4, 4) {
		t.Fatalf("out-of-range Has should be false")
	}
}

// CrossSym must equal the reference definition
// symcross(A,B) = (A × B) ∪ (B × A)  — equation (37) of the paper.
func TestCrossSymReference(t *testing.T) {
	const n = 67
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		a, b := New(n), New(n)
		for i := 0; i < rng.Intn(20); i++ {
			a.Add(rng.Intn(n))
		}
		for i := 0; i < rng.Intn(20); i++ {
			b.Add(rng.Intn(n))
		}
		got := NewPairs(n)
		got.CrossSym(a, b)

		want := NewPairs(n)
		for _, i := range a.Elems() {
			for _, j := range b.Elems() {
				want.Add(i, j)
				want.Add(j, i)
			}
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: CrossSym(%v,%v) = %v, want %v", trial, a, b, got, want)
		}
		if !got.Symmetric() {
			t.Fatalf("trial %d: CrossSym result not symmetric", trial)
		}
	}
}

// TestCrossSymLabel: symcross({l}, B) built from the label alone equals
// CrossSym with the singleton set — same pairs, same chunks, same
// change report — for l inside, before, after and between B's
// elements, with empty B, on empty and pre-filled sets.
func TestCrossSymLabel(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(300)
		b, _ := randomSet(rng, n, []float64{0, 0.01, 0.1, 0.5}[trial%4])
		l := rng.Intn(n)
		got, want := NewPairs(n), NewPairs(n)
		for k := rng.Intn(3); k > 0; k-- {
			i, j := rng.Intn(n), rng.Intn(n)
			got.AddSym(i, j)
			want.AddSym(i, j)
		}
		wantChanged := want.CrossSym(Of(n, l), b)
		if changed := got.CrossSymLabel(l, b); changed != wantChanged || !got.Equal(want) {
			t.Fatalf("trial %d: CrossSymLabel(%d, %v) = %v (changed %v), CrossSym = %v (changed %v)",
				trial, l, b, got, changed, want, wantChanged)
		}
		if got.CrossSymLabel(l, b) {
			t.Fatalf("trial %d: repeated CrossSymLabel reported change", trial)
		}
	}
}

func TestCrossSymChangeReporting(t *testing.T) {
	const n = 32
	a := Of(n, 1, 2)
	b := Of(n, 3)
	p := NewPairs(n)
	if !p.CrossSym(a, b) {
		t.Fatalf("first CrossSym reported no change")
	}
	if p.CrossSym(a, b) {
		t.Fatalf("repeated CrossSym reported change")
	}
}

func TestCrossSymEmptyOperand(t *testing.T) {
	const n = 16
	p := NewPairs(n)
	if p.CrossSym(Of(n, 1, 2), New(n)) {
		t.Fatalf("CrossSym with empty operand changed the set")
	}
	if !p.Empty() {
		t.Fatalf("CrossSym with empty operand produced pairs: %v", p)
	}
}

func TestPairUnionSubsetEqual(t *testing.T) {
	p := NewPairs(16)
	p.AddSym(1, 2)
	q := NewPairs(16)
	q.AddSym(1, 2)
	q.AddSym(3, 4)
	if !p.SubsetOf(q) {
		t.Fatalf("p ⊆ q expected")
	}
	if q.SubsetOf(p) {
		t.Fatalf("q ⊆ p unexpected")
	}
	if !p.UnionWith(q) {
		t.Fatalf("UnionWith reported no change")
	}
	if !p.Equal(q) {
		t.Fatalf("p != q after union: %v vs %v", p, q)
	}
	if p.UnionWith(q) {
		t.Fatalf("idempotent UnionWith reported change")
	}
}

func TestPairCloneClearEach(t *testing.T) {
	p := NewPairs(8)
	p.Add(1, 2)
	p.Add(0, 7)
	c := p.Clone()
	c.Add(3, 3)
	if p.Has(3, 3) {
		t.Fatalf("mutating clone changed original")
	}
	var got [][2]int
	p.Each(func(i, j int) { got = append(got, [2]int{i, j}) })
	want := [][2]int{{0, 7}, {1, 2}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Each = %v, want %v", got, want)
	}
	p.Clear()
	if !p.Empty() {
		t.Fatalf("Clear left pairs")
	}
}

func TestPairRow(t *testing.T) {
	p := NewPairs(100)
	p.Add(5, 1)
	p.Add(5, 99)
	p.Add(6, 2)
	r := p.Row(5)
	if got := r.String(); got != "{1, 99}" {
		t.Fatalf("Row(5) = %s, want {1, 99}", got)
	}
	r.Add(50) // row copies must be independent
	if p.Has(5, 50) {
		t.Fatalf("mutating Row result changed pair set")
	}
}

func TestRowIntersects(t *testing.T) {
	p := NewPairs(64)
	p.Add(3, 10)
	if !p.RowIntersects(3, Of(64, 10, 11)) {
		t.Fatalf("RowIntersects should be true")
	}
	if p.RowIntersects(3, Of(64, 11)) {
		t.Fatalf("RowIntersects should be false")
	}
	if p.RowIntersects(4, Of(64, 10)) {
		t.Fatalf("empty row should not intersect")
	}
}

func TestPairString(t *testing.T) {
	p := NewPairs(4)
	p.Add(1, 2)
	if got := p.String(); got != "{(1,2)}" {
		t.Fatalf("String = %q", got)
	}
}

func TestQuickPairAlgebra(t *testing.T) {
	const n = 40
	mk := func(ps [][2]uint8) *PairSet {
		p := NewPairs(n)
		for _, pr := range ps {
			p.AddSym(int(pr[0])%n, int(pr[1])%n)
		}
		return p
	}
	commutative := func(xs, ys [][2]uint8) bool {
		a, b := mk(xs), mk(ys)
		ab := a.Clone()
		ab.UnionWith(b)
		ba := b.Clone()
		ba.UnionWith(a)
		return ab.Equal(ba)
	}
	if err := quick.Check(commutative, nil); err != nil {
		t.Errorf("pair union not commutative: %v", err)
	}
	symPreserved := func(xs [][2]uint8) bool {
		return mk(xs).Symmetric()
	}
	if err := quick.Check(symPreserved, nil); err != nil {
		t.Errorf("AddSym does not preserve symmetry: %v", err)
	}
}

// TestPairRandomizedAgainstMap drives random Adds (in no particular
// order), membership probes and unions with sets built over other
// universes against a map, then checks Each visits the map's pairs in
// row-major order and Row and RowIntersects on the first, last and an
// absent row.
func TestPairRandomizedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const n = 73
	p := NewPairs(n)
	ref := map[[2]int]bool{}
	for i := 0; i < 5000; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		switch rng.Intn(3) {
		case 0:
			if p.Add(a, b) == ref[[2]int{a, b}] {
				t.Fatalf("step %d: Add(%d,%d) change report wrong", i, a, b)
			}
			ref[[2]int{a, b}] = true
		case 1:
			if p.Has(a, b) != ref[[2]int{a, b}] {
				t.Fatalf("step %d: Has(%d,%d) mismatch", i, a, b)
			}
		case 2:
			q := NewPairs(n - 10 + rng.Intn(20))
			for k := 0; k < 3; k++ {
				if x, y := rng.Intn(q.Universe()), rng.Intn(q.Universe()); x < n && y < n {
					q.Add(x, y)
				}
			}
			want := false
			q.Each(func(x, y int) {
				if !ref[[2]int{x, y}] {
					ref[[2]int{x, y}] = true
					want = true
				}
			})
			if got := p.UnionWith(q); got != want {
				t.Fatalf("step %d: UnionWith changed=%v, want %v", i, got, want)
			}
		}
	}
	if p.Len() != len(ref) {
		t.Fatalf("Len = %d, ref %d", p.Len(), len(ref))
	}

	want := make([][2]int, 0, len(ref))
	for k := range ref {
		want = append(want, k)
	}
	sort.Slice(want, func(x, y int) bool {
		return want[x][0] < want[y][0] || want[x][0] == want[y][0] && want[x][1] < want[y][1]
	})
	if got := p.Pairs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Pairs() not the reference in row-major order")
	}

	// Rebuild without row 40, so that row is absent.
	q := NewPairs(n)
	for _, k := range want {
		if k[0] != 40 {
			q.Add(k[0], k[1])
		}
	}
	all := New(n)
	for e := 0; e < n; e++ {
		all.Add(e)
	}
	for _, i := range []int{0, n - 1, 40} {
		row := q.Row(i)
		for j := 0; j < n; j++ {
			if row.Has(j) != (i != 40 && ref[[2]int{i, j}]) {
				t.Fatalf("Row(%d).Has(%d) = %v", i, j, row.Has(j))
			}
		}
		if got := q.RowIntersects(i, all); got != !row.Empty() {
			t.Fatalf("RowIntersects(%d, all) = %v, row %v", i, got, row)
		}
	}
}

// TestMemoryFootprint: the estimate is a function of the stored
// chunks alone — 16 bytes per nonzero 64-bit word, not the universe
// size or slice capacity — so an aliased value, a copy and an equal
// set built another way all estimate the same.
func TestMemoryFootprint(t *testing.T) {
	if got := NewPairs(1 << 20).MemoryFootprint(); got != 0 {
		t.Fatalf("empty set over 2^20 labels: MemoryFootprint = %d, want 0", got)
	}
	p := NewPairs(200)
	p.Add(3, 0)
	p.Add(3, 63)  // same word as (3,0)
	p.Add(3, 64)  // second word of row 3
	p.Add(199, 5) // another row
	if got := p.MemoryFootprint(); got != 3*16 {
		t.Fatalf("MemoryFootprint = %d, want %d (3 chunks)", got, 3*16)
	}

	// Equal sets built by out-of-order Adds, by union over a larger
	// universe, and by Clone estimate the same, whatever their slice
	// capacities.
	q := NewPairs(200)
	for _, pr := range [][2]int{{199, 5}, {3, 64}, {3, 0}, {3, 63}} {
		q.Add(pr[0], pr[1])
	}
	r := NewPairs(300)
	r.UnionWith(NewPairs(10))
	r.UnionWith(q)
	for _, s := range []*PairSet{q, r, p.Clone()} {
		if !s.Equal(p) || s.MemoryFootprint() != p.MemoryFootprint() {
			t.Fatalf("%v: MemoryFootprint %d, want %d", s, s.MemoryFootprint(), p.MemoryFootprint())
		}
	}
	p.Clear()
	if got := p.MemoryFootprint(); got != 0 {
		t.Fatalf("after Clear: MemoryFootprint = %d, want 0", got)
	}
}
