package engine

import (
	"container/list"
	"sync"

	"fx10/internal/constraints"
	"fx10/internal/intset"
	"fx10/internal/syntax"
	"fx10/internal/types"
)

// The method-summary cache is the second tier of the engine's cache:
// where the program cache (tier 1) reuses whole solved pipelines
// between content-identical programs, this tier reuses one method's
// inferred summary E(f) = (M, O) between content-identical methods of
// different programs in a corpus.
//
// Entries are keyed by the method's content hash and store the
// summary in the canonical label space of the method's call-graph
// subtree (position k of syntax.Program.MethodSubtreeLabels is
// canonical label k). That space is shared by every method with the
// same hash, so a hit is translated to the requesting program's
// global labels by a single table lookup per element. Storage is
// gated to context-sensitive analyses: only there is a method's
// summary a function of its subtree alone (context-insensitively the
// callers' R sets flow in, which the hash deliberately ignores).

// summaryEntry is one cached summary in canonical subtree-local label
// space (universe size = CanonicalMethod.NumLabels).
type summaryEntry struct {
	sum types.Summary
}

// summaryCache is a mutex-guarded LRU keyed by method content hash.
type summaryCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used; values are ProgramHash
	entries map[syntax.ProgramHash]*summaryCacheEntry
}

type summaryCacheEntry struct {
	val  summaryEntry
	elem *list.Element
}

func newSummaryCache(capacity int) *summaryCache {
	return &summaryCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[syntax.ProgramHash]*summaryCacheEntry),
	}
}

func (c *summaryCache) get(k syntax.ProgramHash) (summaryEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok {
		return summaryEntry{}, false
	}
	c.order.MoveToFront(e.elem)
	return e.val, true
}

func (c *summaryCache) contains(k syntax.ProgramHash) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[k]
	return ok
}

func (c *summaryCache) put(k syntax.ProgramHash, v summaryEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[k]; ok {
		// Identical content implies an identical summary (up to the
		// canonical renaming both sides use); keep the first.
		c.order.MoveToFront(e.elem)
		return
	}
	c.entries[k] = &summaryCacheEntry{val: v, elem: c.order.PushFront(k)}
	for len(c.entries) > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(syntax.ProgramHash))
	}
}

func (c *summaryCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// storeSummaries populates the summary tier from a solved
// context-sensitive pipeline: every method's (mᵢ, oᵢ) is translated
// into its subtree's canonical label space and stored under its
// content hash. Methods whose summary mentions a label outside their
// subtree (impossible context-sensitively; defensive) are skipped.
func (e *Engine) storeSummaries(p *syntax.Program, sol *constraints.Solution, mode constraints.Mode) {
	if e.summaries == nil || mode != constraints.ContextSensitive {
		return
	}
	// Clocked programs are excluded from the summary tier entirely —
	// memory and disk alike: the phase analysis prunes a method's mᵢ
	// using phase codes that depend on the whole program (the entry
	// phase flows in from call sites), which the per-method content
	// hash deliberately ignores. Two content-identical methods in
	// different clocked programs can have different pruned summaries,
	// so a clocked summary on disk would poison every engine sharing
	// the store.
	if p.UsesClocks() {
		return
	}
	wrote := false
	for mi := range p.Methods {
		hash := p.MethodHash(mi)
		if e.summaries.contains(hash) {
			continue
		}
		subtree := p.MethodSubtreeLabels(mi)
		toCanon := make(map[int]int, len(subtree))
		for k, l := range subtree {
			toCanon[int(l)] = k
		}
		sum := sol.MethodSummary(mi)
		canon, ok := summaryToCanonical(sum, toCanon, len(subtree))
		if !ok {
			continue
		}
		if e.store != nil && e.store.Has(hash) {
			// Warm start: some earlier process (or an earlier run of
			// this one) already persisted this method. Promote it into
			// the memory tier — the freshly solved canonical summary is
			// bit-identical to the stored one by the content-hash
			// invariant, so no disk read is needed — and count the
			// store hit (Has counted it).
			e.summaries.put(hash, summaryEntry{sum: canon})
			continue
		}
		e.summaries.put(hash, summaryEntry{sum: canon})
		if e.store != nil {
			e.store.Put(hash, canon)
			wrote = true
		}
	}
	if wrote {
		// Best-effort durability per batch; crash-safety (no corrupt
		// records served) never depends on this sync landing.
		_ = e.store.Sync()
	}
}

// summaryKnown reports whether the summary tier — memory or disk —
// holds the given method hash, without counting engine-level hit/miss
// traffic (the disk probe still counts in the store's own stats).
func (e *Engine) summaryKnown(hash syntax.ProgramHash) bool {
	if e.summaries == nil {
		return false
	}
	if e.summaries.contains(hash) {
		return true
	}
	return e.store != nil && e.store.Has(hash)
}

// summaryToCanonical rewrites a summary from global labels into the
// canonical subtree space.
func summaryToCanonical(sum types.Summary, toCanon map[int]int, k int) (types.Summary, bool) {
	out := types.Summary{O: intset.New(k)}
	ok := true
	sum.O.Each(func(l int) {
		c, in := toCanon[l]
		if !in {
			ok = false
			return
		}
		out.O.Add(c)
	})
	if !ok {
		return out, false
	}
	out.M, ok = sum.M.Remap(k, func(l int) (int, bool) {
		c, in := toCanon[l]
		return c, in
	})
	return out, ok
}

// CachedSummary looks up method mi of p in the summary tier: a hit
// means some program in the corpus — possibly a different one, possibly
// analyzed by a previous process when a persistent store is configured
// — has already been analyzed context-sensitively with a
// content-identical method, and returns that method's summary
// translated to p's global labels. A disk-tier hit is promoted into
// the memory tier. The caller owns the returned summary.
func (e *Engine) CachedSummary(p *syntax.Program, mi int) (types.Summary, bool) {
	if e.summaries == nil {
		return types.Summary{}, false
	}
	if p.UsesClocks() {
		// Not a miss: clocked programs are excluded from both tiers by
		// design (see storeSummaries), so they must not depress the
		// hit rate — and they must never reach the disk tier.
		e.sumSkipped.Add(1)
		return types.Summary{}, false
	}
	hash := p.MethodHash(mi)
	entry, ok := e.summaries.get(hash)
	if !ok && e.store != nil {
		if sum, found := e.store.Get(hash); found {
			entry = summaryEntry{sum: sum}
			e.summaries.put(hash, entry)
			ok = true
		}
	}
	if !ok {
		e.sumMisses.Add(1)
		return types.Summary{}, false
	}
	e.sumHits.Add(1)
	subtree := p.MethodSubtreeLabels(mi)
	n := p.NumLabels()
	out := types.Summary{O: intset.New(n)}
	entry.sum.O.Each(func(c int) { out.O.Add(int(subtree[c])) })
	out.M, _ = entry.sum.M.Remap(n, func(c int) (int, bool) { return int(subtree[c]), true })
	return out, true
}
