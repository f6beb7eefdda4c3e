package syntax

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
)

// Content hashing: the incremental pipeline (internal/engine's
// AnalyzeDelta, internal/constraints' SolveDelta) needs to decide
// which methods of an edited program still mean what they meant in a
// base program. Labels cannot answer that — they are dense
// program-global indices, so inserting one instruction shifts the
// labels of every later method. Instead each method gets a content
// hash over a canonical encoding of its call-graph subtree:
//
//   - instruction structure (kinds, array indices, expressions,
//     places, clockedness) in pre-order, with labels numbered
//     method-subtree-locally in traversal order, so the hash is
//     invariant under global relabeling, label renaming, and edits to
//     unrelated methods;
//   - call sites encode the ordinal of the callee within the subtree
//     traversal (not its name), and callee bodies are encoded
//     breadth-first after the referencing body, so the hash covers
//     the full transitive callee content and recursion terminates
//     (a revisited method contributes only its ordinal).
//
// Two methods with equal hashes therefore have structurally
// isomorphic subtrees, and the context-sensitive analysis — whose
// per-method results depend only on the method's subtree — assigns
// them identical values up to the label renumbering given by
// MethodSubtreeLabels. That is the invariant both cache tiers and the
// delta solver rest on.

// ProgramHash is a content hash (sha256).
type ProgramHash = [sha256.Size]byte

// hashMemo holds the lazily computed content hashes of a Program.
// Programs are immutable once built (builder/parser construct, then
// Validate), so computing once under sync.Once is safe for the
// concurrent readers the engine cache fans out to.
type hashMemo struct {
	progOnce sync.Once
	prog     ProgramHash

	methodOnce sync.Once
	methods    []ProgramHash
	canon      []*CanonicalMethod
}

// Hash returns the program's content hash: sha256 of the canonical
// printed form (which round-trips through the parser), streamed into
// the digest rather than built as one string. It is computed once and
// memoized, so cache keying does not re-walk the AST on every lookup.
func (p *Program) Hash() ProgramHash {
	p.hashes.progOnce.Do(func() {
		h := sha256.New()
		writeProgram(h, p)
		h.Sum(p.hashes.prog[:0])
	})
	return p.hashes.prog
}

// MethodHash returns the content hash of method mi's call-graph
// subtree (see the package comment above). Hashes for all methods are
// computed on first use and memoized.
func (p *Program) MethodHash(mi int) ProgramHash {
	p.computeMethodHashes()
	return p.hashes.methods[mi]
}

// MethodHashes returns the content hashes of every method, indexed
// like Methods. The returned slice is shared; do not mutate.
func (p *Program) MethodHashes() []ProgramHash {
	p.computeMethodHashes()
	return p.hashes.methods
}

// CanonicalMethod is the interned canonical form of a method subtree:
// programs with content-identical methods share one CanonicalMethod
// value (pointer equality ⇔ content equality). NumLabels is the
// number of instructions in the subtree — the size of the canonical
// label universe MethodSubtreeLabels enumerates.
type CanonicalMethod struct {
	Hash      ProgramHash
	Encoding  []byte // canonical subtree encoding the hash is over
	NumLabels int    // instructions (= labels) in the subtree
	Methods   int    // methods in the subtree, including the root
}

// internTable maps method content hashes to their shared canonical
// form, across all programs in the process.
var internTable sync.Map // ProgramHash → *CanonicalMethod

// MethodCanon returns the interned canonical form of method mi.
// Identical methods — within one program or across programs — return
// the same pointer.
func (p *Program) MethodCanon(mi int) *CanonicalMethod {
	p.computeMethodHashes()
	return p.hashes.canon[mi]
}

func (p *Program) computeMethodHashes() {
	p.hashes.methodOnce.Do(func() {
		hs := make([]ProgramHash, len(p.Methods))
		cs := make([]*CanonicalMethod, len(p.Methods))
		for mi := range p.Methods {
			enc, nLabels, nMethods := p.encodeSubtree(mi, nil)
			cm := &CanonicalMethod{
				Hash:      sha256.Sum256(enc),
				Encoding:  enc,
				NumLabels: nLabels,
				Methods:   nMethods,
			}
			if shared, loaded := internTable.LoadOrStore(cm.Hash, cm); loaded {
				cm = shared.(*CanonicalMethod)
			}
			hs[mi] = cm.Hash
			cs[mi] = cm
		}
		p.hashes.methods = hs
		p.hashes.canon = cs
	})
}

// MethodSubtreeLabels enumerates the labels of method mi's call-graph
// subtree in canonical order: methods breadth-first from mi in order
// of first reference, each body in pre-order. Position k in the
// result is canonical label k of the subtree — the numbering the
// canonical encoding (and hence the hash) is written in, which is how
// engine-level summary caching translates between content-identical
// methods of different programs.
func (p *Program) MethodSubtreeLabels(mi int) []Label {
	var out []Label
	p.encodeSubtree(mi, &out)
	return out
}

// encodeSubtree produces the canonical encoding of method mi's
// subtree and, when labels is non-nil, appends the subtree's labels
// in canonical order.
func (p *Program) encodeSubtree(mi int, labels *[]Label) (enc []byte, nLabels, nMethods int) {
	ord := map[int]int{mi: 0}
	queue := []int{mi}
	var buf []byte
	for qi := 0; qi < len(queue); qi++ {
		m := p.Methods[queue[qi]]
		buf = encodeStmt(buf, m.Body, ord, &queue, labels, &nLabels)
		buf = append(buf, '|')
	}
	return buf, nLabels, len(queue)
}

func encodeStmt(buf []byte, s *Stmt, ord map[int]int, queue *[]int, labels *[]Label, nLabels *int) []byte {
	for cur := s; cur != nil; cur = cur.Next {
		if labels != nil {
			*labels = append(*labels, cur.Instr.Label())
		}
		*nLabels++
		switch i := cur.Instr.(type) {
		case *Skip:
			buf = append(buf, 'K')
		case *Next:
			buf = append(buf, 'N')
		case *Assign:
			buf = append(buf, 'A')
			buf = binary.AppendUvarint(buf, uint64(i.D))
			switch e := i.Rhs.(type) {
			case Const:
				buf = append(buf, '#')
				buf = binary.AppendVarint(buf, e.C)
			case Plus:
				buf = append(buf, '+')
				buf = binary.AppendUvarint(buf, uint64(e.D))
			}
		case *While:
			buf = append(buf, 'W')
			buf = binary.AppendUvarint(buf, uint64(i.D))
			buf = append(buf, '(')
			buf = encodeStmt(buf, i.Body, ord, queue, labels, nLabels)
			buf = append(buf, ')')
		case *Async:
			buf = append(buf, 'Y')
			buf = binary.AppendVarint(buf, int64(i.Place))
			if i.Clocked {
				buf = append(buf, 'c')
			}
			buf = append(buf, '(')
			buf = encodeStmt(buf, i.Body, ord, queue, labels, nLabels)
			buf = append(buf, ')')
		case *Finish:
			buf = append(buf, 'F')
			buf = append(buf, '(')
			buf = encodeStmt(buf, i.Body, ord, queue, labels, nLabels)
			buf = append(buf, ')')
		case *Call:
			o, ok := ord[i.Method]
			if !ok {
				o = len(ord)
				ord[i.Method] = o
				*queue = append(*queue, i.Method)
			}
			buf = append(buf, 'C')
			buf = binary.AppendUvarint(buf, uint64(o))
		}
	}
	return buf
}
