package constraints

import (
	"fx10/internal/clocks"
	"fx10/internal/intset"
	"fx10/internal/labels"
	"fx10/internal/syntax"
)

// Generate builds the constraint system C(p) for the program behind
// in, in the given mode. Constraint shapes follow equations (57)–(82)
// (and (83)–(84) for ContextInsensitive), extended uniformly to
// statements whose final instruction is not a skip: an absent
// continuation contributes nothing to m and leaves o equal to the
// instruction's own "still running afterwards" set, mirroring the
// treatment in internal/types.
//
// Constraints are emitted in dependency-friendly order so that the
// Gauss–Seidel solver converges in few passes, as the paper's
// implementation does: methods are ordered callee-first (level-1
// information flows callee→caller through the oᵢ variables in the
// context-sensitive analysis), r constraints are emitted in pre-order
// (they flow root-to-leaf) and o/m constraints in post-order (they
// flow leaf-to-root). The context-insensitive mode adds
// caller→callee flows through the rᵢ variables, which is why it needs
// more level-1 passes (the Figure 9 effect).
func Generate(in *labels.Info, mode Mode) *System {
	p := in.Program()
	n := p.NumLabels()
	var calls, whiles int
	for _, li := range p.Labels {
		switch li.Kind {
		case syntax.KindCall:
			calls++
		case syntax.KindWhile:
			whiles++
		}
	}
	nm := len(p.Methods)
	nSet, l1Vars := 2*n+nm, 2*n+calls
	if mode == ContextInsensitive {
		nSet += nm
		l1Vars += nm
	}
	s := &System{
		P:          p,
		Info:       in,
		Mode:       mode,
		L1s:        make([]L1, 0, nSet),
		L2s:        make([]L2, 0, n+nm),
		StmtR:      make([]SetVar, n),
		StmtO:      make([]SetVar, n),
		StmtM:      make([]PairVar, n),
		setVarSrc:  make([]int32, 0, nSet),
		pairVarSrc: make([]int32, 0, n+nm),
	}
	if mode == ContextInsensitive {
		s.Subsets = make([]Subset, 0, calls)
	}
	// The shared backing arrays at their exact sizes. A statement has
	// one more var and pair reference when it has a continuation, and
	// all but the nm method bodies and the while/async/finish bodies
	// do, which leaves these totals.
	g := &generator{
		s:       s,
		in:      in,
		vars:    make([]SetVar, 0, l1Vars),
		crosses: make([]CrossTerm, 0, n+whiles+calls),
		pairs:   make([]PairVar, 0, n+calls),
	}

	// Per-method variables first, so call-site constraints can refer
	// to any method.
	s.MethodO = make([]SetVar, nm)
	s.MethodM = make([]PairVar, nm)
	if mode == ContextInsensitive {
		s.MethodR = make([]SetVar, nm)
	}
	for i := range p.Methods {
		src := methodSrc(i)
		s.MethodO[i] = g.newSetVar(src)
		s.MethodM[i] = g.newPairVar(src)
		if mode == ContextInsensitive {
			s.MethodR[i] = g.newSetVar(src)
		}
	}

	for _, i := range calleeFirstOrder(p) {
		m := p.Methods[i]
		body := m.Body.Instr.Label()
		g.allocStmt(m.Body)
		// Equation (57) / (84): the body's R is ∅, or rᵢ when
		// context-insensitive.
		if mode == ContextInsensitive {
			g.l1(s.StmtR[body], nil, s.MethodR[i])
			// rᵢ itself is defined only by the subset constraints
			// from call sites; give it the empty base equation.
			g.l1(s.MethodR[i], nil)
		} else {
			g.l1(s.StmtR[body], nil)
		}

		g.genStmt(m.Body)

		// Equations (58), (59), after the body so oᵢ/mᵢ see the
		// body's solved values within the same pass.
		g.l1(s.MethodO[i], nil, s.StmtO[body])
		g.l2(s.MethodM[i], nil, s.StmtM[body])
	}

	// Section 8 clocks: programs that use the clock get the static
	// phase analysis attached, and the solvers filter symcross through
	// its codes — two labels at known, different phases are serialized
	// by the barrier, so their pair never enters the level-2 system.
	// Clock-free programs pay nothing (nil slice disables the filter).
	if p.UsesClocks() {
		s.Phases = clocks.ComputePhases(p)
		s.PhaseCode = s.Phases.Codes()
	}
	return s
}

// calleeFirstOrder returns the method indices in reverse call-graph
// order (callees before callers where the call graph permits; cycles
// are broken at the DFS back edge). Unreachable methods follow in
// index order.
func calleeFirstOrder(p *syntax.Program) []int {
	visited := make([]bool, len(p.Methods))
	var order []int
	var visit func(int)
	visit = func(mi int) {
		if visited[mi] {
			return
		}
		visited[mi] = true
		p.Methods[mi].Body.EachDeep(func(i syntax.Instr) {
			if c, ok := i.(*syntax.Call); ok {
				visit(c.Method)
			}
		})
		order = append(order, mi)
	}
	visit(p.MainIndex)
	for mi := range p.Methods {
		visit(mi)
	}
	return order
}

type generator struct {
	s  *System
	in *labels.Info

	// Shared backing arrays the constraints' Vars, Crosses and Pairs
	// slices are cut from.
	vars    []SetVar
	crosses []CrossTerm
	pairs   []PairVar
}

func (g *generator) newSetVar(src int32) SetVar {
	v := SetVar(len(g.s.setVarSrc))
	g.s.setVarSrc = append(g.s.setVarSrc, src)
	return v
}

func (g *generator) newPairVar(src int32) PairVar {
	v := PairVar(len(g.s.pairVarSrc))
	g.s.pairVarSrc = append(g.s.pairVarSrc, src)
	return v
}

// allocStmt allocates r/o/m variables for every statement node
// (suffix) reachable from st, including nested bodies.
func (g *generator) allocStmt(st *syntax.Stmt) {
	for cur := st; cur != nil; cur = cur.Next {
		l := cur.Instr.Label()
		g.s.StmtR[l] = g.newSetVar(int32(l))
		g.s.StmtO[l] = g.newSetVar(int32(l))
		g.s.StmtM[l] = g.newPairVar(int32(l))
		if b := syntax.Body(cur.Instr); b != nil {
			g.allocStmt(b)
		}
	}
}

// cut appends xs to the shared backing array *buf and returns them as
// a slice of it whose capacity ends at its length, so appending to the
// result never overwrites a neighbour.
func cut[T any](buf *[]T, xs ...T) []T {
	if len(xs) == 0 {
		return nil
	}
	if len(*buf)+len(xs) > cap(*buf) {
		*buf = make([]T, 0, max(2*cap(*buf), len(xs)))
	}
	lo := len(*buf)
	*buf = append(*buf, xs...)
	return (*buf)[lo:len(*buf):len(*buf)]
}

// l1 appends LHS = const ∪ vars….
func (g *generator) l1(lhs SetVar, c *intset.Set, vars ...SetVar) {
	g.s.L1s = append(g.s.L1s, L1{LHS: lhs, Const: c, Vars: cut(&g.vars, vars...)})
}

// l2 appends LHS = crosses… ∪ pairs….
func (g *generator) l2(lhs PairVar, crosses []CrossTerm, pairs ...PairVar) {
	g.s.L2s = append(g.s.L2s, L2{LHS: lhs, Crosses: cut(&g.crosses, crosses...), Pairs: cut(&g.pairs, pairs...)})
}

// lcross builds the Lcross(l, v) cross term.
func lcross(l syntax.Label, v SetVar) CrossTerm {
	return CrossTerm{Kind: KLcross, Label: l, Var: v}
}

// scross builds the Scross(s, v) cross term for a statement.
func (g *generator) scross(body *syntax.Stmt, v SetVar) CrossTerm {
	return CrossTerm{Kind: KScross, Label: body.Instr.Label(), Const: g.in.Slabels(body), Var: v}
}

// symcrossMethod builds symcross(Slabels(p(f)), v) for a callee.
func (g *generator) symcrossMethod(mi int, v SetVar) CrossTerm {
	return CrossTerm{Kind: KSymcross, Method: mi, Const: g.in.MethodLabels(mi), Var: v}
}

// genStmt emits the constraints for the statement node cur and
// everything nested in or following it: r constraints on the way
// down, o and m constraints on the way back up. Variables must
// already be allocated.
func (g *generator) genStmt(cur *syntax.Stmt) {
	if cur == nil {
		return
	}
	s := g.s
	l := cur.Instr.Label()
	rS, oS, mS := s.StmtR[l], s.StmtO[l], s.StmtM[l]
	// Continuation variables (equal to the statement's own when there
	// is none; only read when k != nil).
	k := cur.Next
	rK, oK, mK := rS, oS, mS
	if k != nil {
		kl := k.Instr.Label()
		rK, oK, mK = s.StmtR[kl], s.StmtO[kl], s.StmtM[kl]
	}

	switch i := cur.Instr.(type) {
	case *syntax.Skip, *syntax.Assign, *syntax.Next:
		// Equations (60)–(67); next is clock-erased (see
		// internal/types), so it constrains like a skip.
		if k != nil {
			g.l1(rK, nil, rS)
			g.genStmt(k)
			g.l1(oS, nil, oK)
			g.l2(mS, []CrossTerm{lcross(l, rS)}, mK)
		} else {
			g.l1(oS, nil, rS)
			g.l2(mS, []CrossTerm{lcross(l, rS)})
		}

	case *syntax.While:
		// Equations (68)–(71).
		b := i.Body
		bl := b.Instr.Label()
		g.l1(s.StmtR[bl], nil, rS)
		g.genStmt(b)
		crosses := []CrossTerm{lcross(l, s.StmtO[bl]), g.scross(b, s.StmtO[bl])}
		if k != nil {
			g.l1(rK, nil, s.StmtO[bl])
			g.genStmt(k)
			g.l1(oS, nil, oK)
			g.l2(mS, crosses, s.StmtM[bl], mK)
		} else {
			g.l1(oS, nil, s.StmtO[bl])
			g.l2(mS, crosses, s.StmtM[bl])
		}

	case *syntax.Async:
		// Equations (72)–(75).
		b := i.Body
		bl := b.Instr.Label()
		if k != nil {
			g.l1(s.StmtR[bl], g.in.Slabels(k), rS)
			g.l1(rK, g.in.Slabels(b), rS)
			g.genStmt(b)
			g.genStmt(k)
			g.l1(oS, nil, oK)
			g.l2(mS, []CrossTerm{lcross(l, rS)}, s.StmtM[bl], mK)
		} else {
			g.l1(s.StmtR[bl], nil, rS)
			g.genStmt(b)
			g.l1(oS, g.in.Slabels(b), rS)
			g.l2(mS, []CrossTerm{lcross(l, rS)}, s.StmtM[bl])
		}

	case *syntax.Finish:
		// Equations (76)–(79).
		b := i.Body
		bl := b.Instr.Label()
		g.l1(s.StmtR[bl], nil, rS)
		g.genStmt(b)
		if k != nil {
			g.l1(rK, nil, rS)
			g.genStmt(k)
			g.l1(oS, nil, oK)
			g.l2(mS, []CrossTerm{lcross(l, rS)}, s.StmtM[bl], mK)
		} else {
			g.l1(oS, nil, rS)
			g.l2(mS, []CrossTerm{lcross(l, rS)}, s.StmtM[bl])
		}

	case *syntax.Call:
		// Equations (80)–(82), plus (83) when context-insensitive.
		fi := i.Method
		if s.Mode == ContextInsensitive {
			s.Subsets = append(s.Subsets, Subset{Sup: s.MethodR[fi], Sub: rS})
		}
		crosses := []CrossTerm{lcross(l, rS), g.symcrossMethod(fi, rS)}
		if k != nil {
			g.l1(rK, nil, rS, s.MethodO[fi])
			g.genStmt(k)
			g.l1(oS, nil, oK)
			g.l2(mS, crosses, s.MethodM[fi], mK)
		} else {
			g.l1(oS, nil, rS, s.MethodO[fi])
			g.l2(mS, crosses, s.MethodM[fi])
		}
	}
}
