package server

import (
	"container/list"
	"sync"

	"fx10/internal/constraints"
	"fx10/internal/intset"
	"fx10/internal/syntax"
)

// Delta sessions: /v1/delta is an editor-shaped protocol. A session
// holds the last analyzed version of one program; each request sends
// the full edited source, which is analyzed exactly like /v1/analyze
// (same admission, coalescing and program cache), and the response
// also names the methods whose content hash changed since the
// session's previous version (engine.DeltaOf). The analysis is a full
// one: reusing the clean methods' summaries waits on a seeded solve
// (see ROADMAP.md). Edits within one session are serialized by the
// session mutex — an editor sends keystroke-ordered revisions — while
// different sessions proceed in parallel. The store is a bounded LRU:
// an evicted session is not an error, just a cold start (the next
// request reports no delta).

type session struct {
	mu   sync.Mutex
	mode constraints.Mode
	lang string          // canonical front-end name ("fx10", "x10", "go")
	base *syntax.Program // nil until the first analyze completes
}

type sessionStore struct {
	mu    sync.Mutex
	cap   int
	m     map[string]*list.Element
	order *list.List // front = most recently used; values are sessionEntry
}

type sessionEntry struct {
	id string
	s  *session
}

func newSessionStore(capacity int) *sessionStore {
	if capacity < 1 {
		// A zero or negative capacity would evict each session the
		// moment it is inserted — a store that silently forgets
		// everything. Clamp to the smallest store that can function.
		capacity = 1
	}
	return &sessionStore{
		cap:   capacity,
		m:     make(map[string]*list.Element),
		order: list.New(),
	}
}

// get returns the session for id, creating it with the given mode and
// language on first use. A session is keyed by (id, mode, lang) in
// effect: requesting an existing id under a different mode or front
// end returns ok=false — the base held by the session is its
// configuration's lowered program, so diffing a request of another
// configuration against it would mix two different analyses (a delta
// against a base lowered by another front end is undefined).
// created reports a fresh session; evicted is the number of sessions
// dropped to make room. The checks happen under the store lock, so a
// caller never observes a session whose configuration it did not
// agree to.
func (st *sessionStore) get(id string, mode constraints.Mode, lang string) (s *session, created bool, evicted int, ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e, exists := st.m[id]; exists {
		s = e.Value.(sessionEntry).s
		if s.mode != mode || s.lang != lang {
			return nil, false, 0, false
		}
		st.order.MoveToFront(e)
		return s, false, 0, true
	}
	s = &session{mode: mode, lang: lang}
	st.m[id] = st.order.PushFront(sessionEntry{id: id, s: s})
	for len(st.m) > st.cap {
		oldest := st.order.Back()
		st.order.Remove(oldest)
		delete(st.m, oldest.Value.(sessionEntry).id)
		evicted++
	}
	return s, true, evicted, true
}

// len is the number of live sessions.
func (st *sessionStore) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.m)
}

// queryIndex maps analyzed program hashes to the immutable data
// /v1/query needs: the MHP pair set and the label-name table. Entries
// are added by analyze and delta responses and the index is a bounded
// LRU; /v1/query on an evicted (or never-seen) hash is a 404 telling
// the client to analyze first.
type queryIndex struct {
	mu    sync.Mutex
	cap   int
	m     map[flightKey]*list.Element
	order *list.List // values are indexEntry
}

type indexEntry struct {
	key flightKey
	val *indexed
}

// indexed is one analyzed program, read-only after construction.
type indexed struct {
	program *syntax.Program
	m       *intset.PairSet
}

func newQueryIndex(capacity int) *queryIndex {
	if capacity < 1 {
		capacity = 1 // see newSessionStore: cap 0 would evict on insert
	}
	return &queryIndex{
		cap:   capacity,
		m:     make(map[flightKey]*list.Element),
		order: list.New(),
	}
}

func (qi *queryIndex) put(key flightKey, val *indexed) {
	qi.mu.Lock()
	defer qi.mu.Unlock()
	if e, ok := qi.m[key]; ok {
		qi.order.MoveToFront(e)
		return
	}
	qi.m[key] = qi.order.PushFront(indexEntry{key: key, val: val})
	for len(qi.m) > qi.cap {
		oldest := qi.order.Back()
		qi.order.Remove(oldest)
		delete(qi.m, oldest.Value.(indexEntry).key)
	}
}

func (qi *queryIndex) get(key flightKey) (*indexed, bool) {
	qi.mu.Lock()
	defer qi.mu.Unlock()
	e, ok := qi.m[key]
	if !ok {
		return nil, false
	}
	qi.order.MoveToFront(e)
	return e.Value.(indexEntry).val, true
}
