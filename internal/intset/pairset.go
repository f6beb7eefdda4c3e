package intset

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// pairChunk is one nonzero 64-bit word of the pair matrix: bit b of
// bits is the pair (key>>32, uint32(key)·64 + b).
type pairChunk struct {
	key  uint64 // row<<32 | word index within the row
	bits uint64
}

// chunkKey is the key of the word holding the pair (i, j). It depends
// only on the pair, never on the universe size, so pair sets built
// over different universes (a delta solve reusing a previous solve's
// values) union and compare directly.
func chunkKey(i, j int) uint64 { return uint64(i)<<32 | uint64(j/wordBits) }

// PairSet is a sparse set of pairs drawn from the universe
// {0, …, n-1} × {0, …, n-1}. It represents the may-happen-in-parallel
// sets M of the analysis: membership of (l1, l2) means the instructions
// labeled l1 and l2 may happen in parallel.
//
// Only the nonzero words of the n×n bit matrix are stored, as chunks
// sorted by (row, word). Union is a linear merge with word ORs, row
// queries binary-search the row, and an empty set allocates nothing,
// so memory follows the number of pairs rather than n².
//
// The analysis only ever constructs symmetric pair sets (symcross
// always adds both orientations), but PairSet itself does not enforce
// symmetry; AddSym and CrossSym are the symmetric insertion operations.
type PairSet struct {
	n      int
	chunks []pairChunk // nonzero words, strictly increasing key
	count  int         // cached population count (ordered pairs)

	// CrossSym memo: the operands of the last CrossSym call and their
	// generations. Pair sets only grow (Clear is the one removal and
	// invalidates the memo), so once symcross(A, B) has been folded in,
	// repeating it with unchanged operands provably adds nothing and is
	// skipped.
	memoOK       bool
	lastA, lastB *Set
	genA, genB   uint32
}

// NewPairs returns an empty pair set over {0,…,n-1} × {0,…,n-1}.
func NewPairs(n int) *PairSet {
	if n < 0 {
		panic(fmt.Sprintf("intset: negative universe size %d", n))
	}
	return &PairSet{n: n}
}

// Universe returns the per-coordinate universe size.
func (p *PairSet) Universe() int { return p.n }

func (p *PairSet) checkPair(i, j int) {
	if i < 0 || i >= p.n || j < 0 || j >= p.n {
		panic(fmt.Sprintf("intset: pair (%d,%d) outside universe [0,%d)^2", i, j, p.n))
	}
}

// seek returns the first index k ≥ lo with c[k].key ≥ key, galloping
// from lo so that a sweep of ascending keys costs O(m·log(len/m)).
func seek(c []pairChunk, lo int, key uint64) int {
	hi := lo
	for step := 1; hi < len(c) && c[hi].key < key; step <<= 1 {
		lo = hi + 1
		hi += step
	}
	return search(c, lo, min(hi, len(c)), key)
}

// search returns the first index k in [lo, hi) with c[k].key ≥ key,
// or hi if there is none.
func search(c []pairChunk, lo, hi int, key uint64) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c[mid].key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Add inserts the ordered pair (i, j) and reports whether the set
// changed. Adding in row-major order appends, in O(1).
func (p *PairSet) Add(i, j int) bool {
	p.checkPair(i, j)
	k, bit := chunkKey(i, j), uint64(1)<<uint(j%wordBits)
	c := p.chunks
	pos := len(c)
	switch {
	case pos > 0 && c[pos-1].key == k:
		pos--
	case pos > 0 && c[pos-1].key > k:
		pos = search(c, 0, pos, k)
	}
	if pos < len(c) && c[pos].key == k {
		if c[pos].bits&bit != 0 {
			return false
		}
		c[pos].bits |= bit
	} else {
		p.chunks = slices.Insert(c, pos, pairChunk{k, bit})
	}
	p.count++
	return true
}

// AddSym inserts both (i, j) and (j, i); it reports whether the set changed.
func (p *PairSet) AddSym(i, j int) bool {
	a := p.Add(i, j)
	b := p.Add(j, i)
	return a || b
}

// Has reports whether the ordered pair (i, j) is in the set.
func (p *PairSet) Has(i, j int) bool {
	if i < 0 || i >= p.n || j < 0 || j >= p.n {
		return false
	}
	k := chunkKey(i, j)
	pos := search(p.chunks, 0, len(p.chunks), k)
	return pos < len(p.chunks) && p.chunks[pos].key == k &&
		p.chunks[pos].bits&(1<<uint(j%wordBits)) != 0
}

// CrossSym adds symcross(A, B) = (A × B) ∪ (B × A) to the set and
// reports whether the set changed. A and B must share the pair set's
// universe. This is the workhorse of the analysis: each Lcross, Scross
// and Tcross in the paper is a CrossSym with particular arguments.
//
// Two fast paths skip the work entirely: an empty operand makes both
// products empty, and operands that are pointer- and
// generation-identical to the previous CrossSym call on this pair set
// have already been folded in (pair sets only grow, so the earlier
// fold still covers the product).
func (p *PairSet) CrossSym(a, b *Set) bool {
	if a.n != p.n || b.n != p.n {
		panic(fmt.Sprintf("intset: CrossSym universe mismatch (%d, %d, %d)", a.n, b.n, p.n))
	}
	if a.count == 0 || b.count == 0 {
		return false
	}
	if p.memoOK &&
		((p.lastA == a && p.genA == a.gen && p.lastB == b && p.genB == b.gen) ||
			(p.lastA == b && p.genA == b.gen && p.lastB == a && p.genB == a.gen)) {
		return false
	}
	changed := p.fold(crossChunks(a, b))
	p.memoOK, p.lastA, p.genA, p.lastB, p.genB = true, a, a.gen, b, b.gen
	return changed
}

// CrossSymLabel adds symcross({l}, B) = ({l} × B) ∪ (B × {l}) to the
// set and reports whether the set changed: CrossSym with a singleton
// first operand, without the n-bit singleton set. Its chunks are one
// per element of B for the column l, and B's nonzero words for row l.
func (p *PairSet) CrossSymLabel(l int, b *Set) bool {
	if b.n != p.n || l < 0 || l >= p.n {
		panic(fmt.Sprintf("intset: CrossSymLabel(%d) universe mismatch (%d, %d)", l, b.n, p.n))
	}
	if b.count == 0 {
		return false
	}
	nz := 0
	for _, x := range b.words {
		if x != 0 {
			nz++
		}
	}
	prod := make([]pairChunk, 0, b.count+nz)
	col, bit := uint64(l/wordBits), uint64(1)<<uint(l%wordBits)
	// Rows j < l, then row l (B's words, holding (l, l) if l ∈ B),
	// then rows j > l.
	b.Each(func(j int) {
		if j < l {
			prod = append(prod, pairChunk{uint64(j)<<32 | col, bit})
		}
	})
	for k, x := range b.words {
		if x != 0 {
			prod = append(prod, pairChunk{uint64(l)<<32 | uint64(k), x})
		}
	}
	b.Each(func(j int) {
		if j > l {
			prod = append(prod, pairChunk{uint64(j)<<32 | col, bit})
		}
	})
	return p.fold(prod)
}

// fold ORs the sorted chunks q into p, adopting q when p is empty, and
// reports whether p changed.
func (p *PairSet) fold(q []pairChunk) bool {
	if len(p.chunks) != 0 {
		return p.merge(q)
	}
	p.chunks = q
	for _, c := range q {
		p.count += bits.OnesCount64(c.bits)
	}
	return len(q) > 0
}

// crossChunks returns the chunks of (A × B) ∪ (B × A) in key order:
// row i is B for i ∈ A∖B, A for i ∈ B∖A and A ∪ B for i ∈ A ∩ B.
func crossChunks(a, b *Set) []pairChunk {
	nz := 0
	for k, x := range a.words {
		if x|b.words[k] != 0 {
			nz++
		}
	}
	// The nonzero words of A, B and A ∪ B, keyed by word index.
	buf := make([]pairChunk, 3*nz)
	aw, bw, abw := buf[:0:nz], buf[nz:nz:2*nz], buf[2*nz:2*nz]
	var onlyA, onlyB, both int
	for k, x := range a.words {
		y := b.words[k]
		if x != 0 {
			aw = append(aw, pairChunk{uint64(k), x})
		}
		if y != 0 {
			bw = append(bw, pairChunk{uint64(k), y})
		}
		if x|y != 0 {
			abw = append(abw, pairChunk{uint64(k), x | y})
		}
		onlyA += bits.OnesCount64(x &^ y)
		onlyB += bits.OnesCount64(y &^ x)
		both += bits.OnesCount64(x & y)
	}
	out := make([]pairChunk, 0, onlyA*len(bw)+onlyB*len(aw)+both*len(abw))
	for k, x := range a.words {
		y := b.words[k]
		for u := x | y; u != 0; u &= u - 1 {
			bit := u & -u
			row := abw
			switch {
			case y&bit == 0:
				row = bw
			case x&bit == 0:
				row = aw
			}
			base := uint64(k*wordBits+bits.TrailingZeros64(u)) << 32
			for _, c := range row {
				out = append(out, pairChunk{base | c.key, c.bits})
			}
		}
	}
	return out
}

// merge ORs the sorted chunks q into p in place and reports whether p
// changed. It never retains q.
func (p *PairSet) merge(q []pairChunk) bool {
	c := p.chunks
	extra, added, pos := 0, 0, 0
	for _, x := range q {
		pos = seek(c, pos, x.key)
		if pos < len(c) && c[pos].key == x.key {
			added += bits.OnesCount64(x.bits &^ c[pos].bits)
		} else {
			extra++
			added += bits.OnesCount64(x.bits)
		}
	}
	if added == 0 {
		return false
	}
	p.count += added
	if extra == 0 {
		pos = 0
		for _, x := range q {
			pos = seek(c, pos, x.key)
			c[pos].bits |= x.bits
		}
		return true
	}
	// Merge from the back into the grown slice: the write cursor never
	// overtakes the unread part of p, and p's prefix below the first
	// new key stays where it is.
	i, j, w := len(c)-1, len(q)-1, len(c)+extra-1
	c = slices.Grow(c, extra)[:len(c)+extra]
	for ; j >= 0; w-- {
		switch {
		case i >= 0 && c[i].key > q[j].key:
			c[w] = c[i]
			i--
		case i >= 0 && c[i].key == q[j].key:
			c[w] = pairChunk{q[j].key, c[i].bits | q[j].bits}
			i--
			j--
		default:
			c[w] = q[j]
			j--
		}
	}
	p.chunks = c
	return true
}

// UnionWith adds every pair of q to p and reports whether p changed.
// The two sets may be over different universes: pairs are keyed
// independently of the universe size.
func (p *PairSet) UnionWith(q *PairSet) bool {
	if q.count == 0 || p == q {
		return false
	}
	if len(p.chunks) == 0 {
		p.chunks = append(p.chunks, q.chunks...)
		p.count = q.count
		return true
	}
	return p.merge(q.chunks)
}

// Remap returns the set of pairs (f(i), f(j)) for (i, j) in p, over
// {0,…,n-1}, or false if f rejects a coordinate. f need not preserve
// order: the translated pairs are sorted, then added in row-major
// order, so each Add appends.
func (p *PairSet) Remap(n int, f func(int) (int, bool)) (*PairSet, bool) {
	keys := make([]uint64, 0, p.count)
	ok := true
	p.Each(func(i, j int) {
		if !ok {
			return
		}
		fi, oki := f(i)
		fj, okj := f(j)
		ok = oki && okj
		keys = append(keys, uint64(fi)<<32|uint64(fj))
	})
	if !ok {
		return nil, false
	}
	slices.Sort(keys)
	out := NewPairs(n)
	for _, k := range keys {
		out.Add(int(k>>32), int(uint32(k)))
	}
	return out, true
}

// Clone returns an independent copy of p.
func (p *PairSet) Clone() *PairSet {
	return &PairSet{n: p.n, chunks: slices.Clone(p.chunks), count: p.count}
}

// Clear removes all pairs and invalidates the CrossSym memo.
func (p *PairSet) Clear() {
	p.memoOK, p.lastA, p.lastB = false, nil, nil
	p.chunks = p.chunks[:0]
	p.count = 0
}

// Len returns the number of ordered pairs in the set (O(1): the
// population count is maintained incrementally).
func (p *PairSet) Len() int { return p.count }

// Empty reports whether the set has no pairs.
func (p *PairSet) Empty() bool { return p.count == 0 }

// Equal reports whether p and q contain the same pairs, whatever
// their universes.
func (p *PairSet) Equal(q *PairSet) bool {
	return p.count == q.count && slices.Equal(p.chunks, q.chunks)
}

// SubsetOf reports whether every pair of p is in q.
func (p *PairSet) SubsetOf(q *PairSet) bool {
	if p.count > q.count {
		return false
	}
	pos := 0
	for _, x := range p.chunks {
		pos = seek(q.chunks, pos, x.key)
		if pos == len(q.chunks) || q.chunks[pos].key != x.key || x.bits&^q.chunks[pos].bits != 0 {
			return false
		}
	}
	return true
}

// Symmetric reports whether (i,j) ∈ p implies (j,i) ∈ p.
func (p *PairSet) Symmetric() bool {
	ok := true
	p.Each(func(i, j int) {
		if !p.Has(j, i) {
			ok = false
		}
	})
	return ok
}

// Each calls f on every ordered pair in row-major order.
func (p *PairSet) Each(f func(i, j int)) {
	for _, c := range p.chunks {
		i, base := int(c.key>>32), int(uint32(c.key))*wordBits
		for w := c.bits; w != 0; w &= w - 1 {
			f(i, base+bits.TrailingZeros64(w))
		}
	}
}

// Pairs returns all ordered pairs in row-major order.
func (p *PairSet) Pairs() [][2]int {
	out := make([][2]int, 0, p.Len())
	p.Each(func(i, j int) { out = append(out, [2]int{i, j}) })
	return out
}

// row returns the chunks of row i.
func (p *PairSet) row(i int) []pairChunk {
	lo := search(p.chunks, 0, len(p.chunks), uint64(i)<<32)
	hi := seek(p.chunks, lo, uint64(i+1)<<32)
	return p.chunks[lo:hi]
}

// Row returns the set of js with (i, j) in p, as a fresh Set.
func (p *PairSet) Row(i int) *Set {
	if i < 0 || i >= p.n {
		panic(fmt.Sprintf("intset: row %d outside universe [0,%d)", i, p.n))
	}
	s := New(p.n)
	for _, c := range p.row(i) {
		s.words[uint32(c.key)] = c.bits
		s.count += bits.OnesCount64(c.bits)
	}
	return s
}

// RowIntersects reports whether row i of p has any element in common
// with the set b.
func (p *PairSet) RowIntersects(i int, b *Set) bool {
	for _, c := range p.row(i) {
		if w := int(uint32(c.key)); w < len(b.words) && b.words[w]&c.bits != 0 {
			return true
		}
	}
	return false
}

// String renders the set as "{(i,j), …}".
func (p *PairSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	p.Each(func(i, j int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "(%d,%d)", i, j)
	})
	b.WriteByte('}')
	return b.String()
}

// MemoryFootprint returns the approximate number of bytes the pair
// set's stored chunks occupy (16 per nonzero word). It depends only on
// the contents, so equal sets estimate the same. The solver uses this
// for the space column of Figure 8.
func (p *PairSet) MemoryFootprint() int { return len(p.chunks) * 16 }
