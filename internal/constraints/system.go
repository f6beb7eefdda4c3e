// Package constraints implements the constraint-based type inference
// of Section 5 of the paper: constraint generation (equations
// (57)–(82)), the context-insensitive variant of Section 7 (equations
// (83)–(84)), and the three-phase iterative solver of Section 5.3
// (Slabels, then level-1, then level-2), plus a single-phase
// "monolithic" solver kept for ablation.
//
// For every statement s (every suffix position, i.e. every
// instruction) the generator introduces the set variables r_s and o_s
// and the pair variable m_s; for every method fᵢ it introduces oᵢ and
// mᵢ (and, context-insensitively, rᵢ). Level-1 constraints relate r/o
// variables; level-2 constraints define m variables from cross terms
// and other m variables.
package constraints

import (
	"fmt"
	"sort"
	"strings"

	"fx10/internal/clocks"
	"fx10/internal/intset"
	"fx10/internal/labels"
	"fx10/internal/syntax"
)

// Mode selects between the paper's context-sensitive analysis
// (Section 5) and the context-insensitive baseline (Section 7).
type Mode int

const (
	// ContextSensitive is the paper's analysis: method bodies are
	// analyzed once under R = ∅ and call sites splice in summaries.
	ContextSensitive Mode = iota
	// ContextInsensitive merges the R sets of all call sites of a
	// method into a per-method rᵢ variable (equations (83)–(84)).
	ContextInsensitive
)

func (m Mode) String() string {
	if m == ContextSensitive {
		return "context-sensitive"
	}
	return "context-insensitive"
}

// SetVar indexes a level-1 (label set) variable.
type SetVar int

// PairVar indexes a level-2 (label pair set) variable.
type PairVar int

// CrossKind records which helper function a cross term prints as.
type CrossKind int

const (
	// KLcross is Lcross(l, v): the constant is the singleton {l}.
	KLcross CrossKind = iota
	// KScross is Scross_p(s, v): the constant is Slabels_p(s).
	KScross
	// KSymcross is symcross(c, v) for a general constant c (used by
	// the call rule with c = Slabels_p(p(fᵢ))).
	KSymcross
)

// CrossTerm is symcross(constant, value of Var): every cross term in
// the generated constraints has one constant and one variable operand.
// An Lcross term's constant is the singleton {Label}, carried as the
// label alone; the others carry it as the set Const.
type CrossTerm struct {
	Kind CrossKind
	// Label is l for Lcross(l, v), and for Scross(s, v) the first
	// label of s, which names it.
	Label syntax.Label
	// Method is fᵢ for symcross(Slabels(p(fᵢ)), v).
	Method int
	// Const is the constant operand of Scross and symcross terms; nil
	// for Lcross.
	Const *intset.Set
	Var   SetVar
}

// constEmpty reports whether the term's constant operand is empty.
func (ct *CrossTerm) constEmpty() bool {
	return ct.Kind != KLcross && (ct.Const == nil || ct.Const.Empty())
}

// eachConst calls f on every label of the term's constant operand.
func (ct *CrossTerm) eachConst(f func(int)) {
	if ct.Kind == KLcross {
		f(int(ct.Label))
		return
	}
	ct.Const.Each(f)
}

// L1 is a level-1 constraint LHS = Const ∪ Vars[0] ∪ Vars[1] ∪ ….
// Const may be nil (empty). Every set variable is the LHS of exactly
// one L1 constraint.
type L1 struct {
	LHS   SetVar
	Const *intset.Set
	Vars  []SetVar
}

// Subset is the context-insensitive inclusion Sub ⊆ Sup (equation
// (83): r_s ⊆ rᵢ).
type Subset struct {
	Sup SetVar
	Sub SetVar
}

// L2 is a level-2 constraint
// LHS = Crosses[0] ∪ … ∪ Pairs[0] ∪ ….
// Every pair variable is the LHS of exactly one L2 constraint.
type L2 struct {
	LHS     PairVar
	Crosses []CrossTerm
	Pairs   []PairVar
}

// System is a generated constraint system.
type System struct {
	P    *syntax.Program
	Info *labels.Info
	Mode Mode

	L1s     []L1
	Subsets []Subset
	L2s     []L2

	// Per-statement variables, indexed by the label of the statement
	// (suffix) node's first instruction.
	StmtR []SetVar
	StmtO []SetVar
	StmtM []PairVar

	// Per-method variables, indexed like Program.Methods.
	MethodO []SetVar
	MethodM []PairVar
	// MethodR holds the rᵢ variables; only populated in
	// ContextInsensitive mode.
	MethodR []SetVar

	// Phases is the static clock-phase analysis of the program, set by
	// Generate iff the program uses clocks (Section 8); nil otherwise.
	// PhaseCode is its flattened form (clocks.PhaseInfo.Codes): one
	// int32 per label, the concrete phase for Known labels and -1 for
	// ⊥/⊤. The solvers consult it in crossSym — two labels with
	// non-negative different codes are barrier-ordered, so their pair
	// never enters the level-2 system.
	Phases    *clocks.PhaseInfo
	PhaseCode []int32

	// What each variable belongs to, from which its name is derived
	// (SetVarName, PairVarName): a statement variable holds its label,
	// a method variable holds methodSrc of its method.
	setVarSrc  []int32
	pairVarSrc []int32
}

// methodSrc encodes method mi as a variable source, below every label.
func methodSrc(mi int) int32 { return int32(-mi - 1) }

// SetVarName returns the display name of a set variable: r_s or o_s
// for statement s (named by its label), oᵢ or rᵢ for method fᵢ.
func (s *System) SetVarName(v SetVar) string {
	src := s.setVarSrc[v]
	if src < 0 {
		mi := int(-src - 1)
		if s.MethodO[mi] == v {
			return "o_" + s.P.Methods[mi].Name
		}
		return "r_" + s.P.Methods[mi].Name
	}
	l := syntax.Label(src)
	if s.StmtR[l] == v {
		return "r_" + s.P.LabelName(l)
	}
	return "o_" + s.P.LabelName(l)
}

// PairVarName returns the display name of a pair variable: m_s for
// statement s, mᵢ for method fᵢ.
func (s *System) PairVarName(v PairVar) string {
	src := s.pairVarSrc[v]
	if src < 0 {
		return "m_" + s.P.Methods[-src-1].Name
	}
	return "m_" + s.P.LabelName(syntax.Label(src))
}

// Counts returns the constraint counts reported in Figure 6: the
// number of Slabels equations (one per statement node, equations
// (15)–(21)), of level-1 constraints (including context-insensitive
// subset constraints), and of level-2 constraints.
func (s *System) Counts() (slabels, l1, l2 int) {
	return len(s.StmtM), len(s.L1s) + len(s.Subsets), len(s.L2s)
}

// NumSetVars returns the number of level-1 variables.
func (s *System) NumSetVars() int { return len(s.setVarSrc) }

// NumPairVars returns the number of level-2 variables.
func (s *System) NumPairVars() int { return len(s.pairVarSrc) }

// labelSetString renders a constant label set with display names.
func (s *System) labelSetString(set *intset.Set) string {
	if set == nil || set.Empty() {
		return "{}"
	}
	var elems []string
	set.Each(func(e int) { elems = append(elems, s.P.LabelName(syntax.Label(e))) })
	sort.Strings(elems)
	return "{" + strings.Join(elems, ", ") + "}"
}

// String renders the whole system in the notation of Figure 5.
func (s *System) String() string {
	var b strings.Builder
	for _, c := range s.L1s {
		fmt.Fprintf(&b, "%s = %s\n", s.SetVarName(c.LHS), s.l1RHSString(c))
	}
	for _, c := range s.Subsets {
		fmt.Fprintf(&b, "%s ⊆ %s\n", s.SetVarName(c.Sub), s.SetVarName(c.Sup))
	}
	for _, c := range s.L2s {
		fmt.Fprintf(&b, "%s = %s\n", s.PairVarName(c.LHS), s.l2RHSString(c))
	}
	return b.String()
}

func (s *System) l1RHSString(c L1) string {
	var parts []string
	if c.Const != nil && !c.Const.Empty() {
		parts = append(parts, s.labelSetString(c.Const))
	}
	for _, v := range c.Vars {
		parts = append(parts, s.SetVarName(v))
	}
	if len(parts) == 0 {
		return "{}"
	}
	return strings.Join(parts, " ∪ ")
}

func (s *System) l2RHSString(c L2) string {
	var parts []string
	for _, ct := range c.Crosses {
		switch ct.Kind {
		case KLcross:
			parts = append(parts, fmt.Sprintf("Lcross(%s, %s)", s.P.LabelName(ct.Label), s.SetVarName(ct.Var)))
		case KScross:
			parts = append(parts, fmt.Sprintf("Scross(%s, %s)", s.P.LabelName(ct.Label), s.SetVarName(ct.Var)))
		default:
			parts = append(parts, fmt.Sprintf("symcross(Slabels(%s), %s)", s.P.Methods[ct.Method].Name, s.SetVarName(ct.Var)))
		}
	}
	for _, v := range c.Pairs {
		parts = append(parts, s.PairVarName(v))
	}
	if len(parts) == 0 {
		return "{}"
	}
	return strings.Join(parts, " ∪ ")
}
