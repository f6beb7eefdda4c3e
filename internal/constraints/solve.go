package constraints

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"fx10/internal/intset"
	"fx10/internal/syntax"
	"fx10/internal/types"
)

// Algorithm selects how Solve reaches the least solution. Theorems
// 5–6 make that solution unique, so the algorithms differ only in cost
// and in which work counters they fill in (pass counts or
// Evaluations).
type Algorithm int

const (
	// Phased is the paper's three-phase solver (Section 5.3): level-1
	// passes to a fixpoint, cross terms folded in once, then level-2
	// passes. It is the reference every other algorithm is checked
	// against, and the one whose pass counts Figures 8 and 9 report.
	Phased Algorithm = iota
	// Topo condenses each level's constraint graph into strongly
	// connected components (Tarjan), aliases every variable of a
	// cycle to one representative, and solves components once in
	// topological order (see topo.go). It is the production solver.
	// Evaluations counts the near-minimal constraint evaluations.
	Topo
	// Monolithic disables the three-phase optimization and iterates
	// level-1 and level-2 constraints together to a joint fixpoint,
	// re-evaluating cross terms every pass. Kept as an ablation
	// oracle.
	Monolithic
	// Worklist re-evaluates only the constraints whose inputs changed
	// (still phased); Evaluations counts the re-evaluations. Kept as
	// an oracle.
	Worklist
)

// Algorithms lists every algorithm, reference (Phased) first — the
// sweep the equivalence oracles run.
func Algorithms() []Algorithm { return []Algorithm{Phased, Topo, Monolithic, Worklist} }

func (a Algorithm) String() string {
	switch a {
	case Phased:
		return "phased"
	case Topo:
		return "topo"
	case Monolithic:
		return "monolithic"
	case Worklist:
		return "worklist"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Solution is a least solution of a System, with solver metrics.
type Solution struct {
	sys *System

	setVals  []*intset.Set
	pairVals []*intset.PairSet

	// IterSlabels, IterL1 and IterL2 are the fixpoint pass counts of
	// the three phases (each includes the final, no-change pass). In
	// monolithic mode IterL1 == IterL2 == joint pass count; in
	// worklist and topo mode IterL1 and IterL2 stay zero and
	// Evaluations counts constraint evaluations instead.
	IterSlabels int
	IterL1      int
	IterL2      int
	// Evaluations counts individual constraint evaluations in
	// worklist and topo modes. The topo solver evaluates each
	// constraint at most once (copy-elided constraints not at all),
	// so its count is a lower bound the worklist count can be
	// compared against.
	Evaluations int64

	// scratch holds buffers the iterative solvers share across the
	// two levels; it is released before Solve returns.
	scratch solverScratch

	// cancel is the cooperative-cancellation state (see cancel.go);
	// zero when the solve is not cancellable.
	cancel cancelState

	// Duration is the wall time of Solve (constraint solving only;
	// see internal/experiments for end-to-end pipeline timing).
	Duration time.Duration

	// AllocBytes is the heap allocated during Solve (runtime
	// TotalAlloc delta): a machine-independent proxy for the space
	// column of Figure 8.
	AllocBytes uint64
}

// Solve computes the least solution of the system (Theorem 5: the
// constraints define a monotone function on a finite lattice, so a
// least fixpoint exists; we reach it by accumulating iteration from
// the bottom valuation).
func (s *System) Solve(alg Algorithm) *Solution {
	return s.solve(context.Background(), alg)
}

// solve is the shared core of Solve and SolveCtx. It unwinds with a
// canceledPanic when ctx is cancelled mid-solve (see cancel.go).
func (s *System) solve(ctx context.Context, alg Algorithm) *Solution {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()

	n := s.P.NumLabels()
	sol := &Solution{
		sys:         s,
		setVals:     make([]*intset.Set, s.NumSetVars()),
		pairVals:    make([]*intset.PairSet, s.NumPairVars()),
		IterSlabels: s.Info.Iterations,
	}
	sol.cancel.arm(ctx)
	// The topo solver allocates its own valuation (one slab for all
	// set variables, aliased pair sets); the iterative solvers start
	// from an explicit bottom valuation.
	if alg != Topo {
		for i := range sol.setVals {
			sol.setVals[i] = intset.New(n)
		}
		for i := range sol.pairVals {
			sol.pairVals[i] = intset.NewPairs(n)
		}
	}

	switch alg {
	case Phased:
		sol.solveL1()
		sol.solveL2()
	case Topo:
		sol.solveTopoL1()
		sol.solveTopoL2()
	case Monolithic:
		sol.solveMonolithic()
	case Worklist:
		sol.solveL1Worklist()
		sol.solveL2Worklist()
	default:
		panic(fmt.Sprintf("constraints: unknown %v", alg))
	}
	sol.scratch = solverScratch{}

	sol.Duration = time.Since(start)
	runtime.ReadMemStats(&ms1)
	sol.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	return sol
}

// FootprintBytes estimates the memory the solved valuation retains,
// the space column of Figure 8. Dense sets cost words × 8 bytes each
// (plus header); pair sets cost their stored chunks. Topo's copy
// elision makes several variables share one pair set, so each distinct
// set counts once. It walks the whole valuation, so it is computed on
// demand rather than on every solve.
func (sol *Solution) FootprintBytes() int {
	n := sol.sys.P.NumLabels()
	total := len(sol.setVals) * ((n+63)/64*8 + 24)
	seen := make(map[*intset.PairSet]bool, len(sol.pairVals))
	for _, m := range sol.pairVals {
		if !seen[m] {
			seen[m] = true
			total += m.MemoryFootprint()
		}
	}
	return total
}

// l1Pass applies every level-1 constraint once (Gauss–Seidel with
// union accumulation, which preserves the least fixpoint because all
// right-hand sides are monotone unions) and reports change.
func (sol *Solution) l1Pass() bool {
	s := sol.sys
	changed := false
	for _, c := range s.L1s {
		sol.checkCancel()
		lhs := sol.setVals[c.LHS]
		if c.Const != nil && lhs.UnionWith(c.Const) {
			changed = true
		}
		for _, v := range c.Vars {
			if lhs.UnionWith(sol.setVals[v]) {
				changed = true
			}
		}
	}
	for _, c := range s.Subsets {
		sol.checkCancel()
		if sol.setVals[c.Sup].UnionWith(sol.setVals[c.Sub]) {
			changed = true
		}
	}
	return changed
}

func (sol *Solution) solveL1() {
	for {
		sol.IterL1++
		if !sol.l1Pass() {
			return
		}
	}
}

// l2Pass applies every level-2 constraint once against the current
// valuation. evalCrosses selects whether cross terms are re-evaluated
// (monolithic mode) or assumed already folded into the pair values.
func (sol *Solution) l2Pass(evalCrosses bool) bool {
	s := sol.sys
	changed := false
	for _, c := range s.L2s {
		sol.checkCancel()
		lhs := sol.pairVals[c.LHS]
		if evalCrosses {
			for _, ct := range c.Crosses {
				if addCross(lhs, ct, sol.setVals[ct.Var], s.PhaseCode) {
					changed = true
				}
			}
		}
		for _, v := range c.Pairs {
			if lhs.UnionWith(sol.pairVals[v]) {
				changed = true
			}
		}
	}
	return changed
}

func (sol *Solution) solveL2() {
	// Phase 3 of Section 5.3: with level-1 solved, every cross term
	// is a constant pair set; fold them in once, then iterate pure
	// m-variable unions.
	for _, c := range sol.sys.L2s {
		sol.checkCancel()
		lhs := sol.pairVals[c.LHS]
		for _, ct := range c.Crosses {
			addCross(lhs, ct, sol.setVals[ct.Var], sol.sys.PhaseCode)
		}
	}
	for {
		sol.IterL2++
		if !sol.l2Pass(false) {
			return
		}
	}
}

func (sol *Solution) solveMonolithic() {
	for {
		sol.IterL1++
		sol.IterL2++
		c1 := sol.l1Pass()
		c2 := sol.l2Pass(true)
		if !c1 && !c2 {
			return
		}
	}
}

// SetValue returns the solved value of a set variable (shared; do not
// mutate).
func (sol *Solution) SetValue(v SetVar) *intset.Set { return sol.setVals[v] }

// PairValue returns the solved value of a pair variable (fresh copy,
// owned by the caller).
func (sol *Solution) PairValue(v PairVar) *intset.PairSet { return sol.pairVals[v].Clone() }

// PairLen returns the number of ordered pairs in a pair variable
// without copying it.
func (sol *Solution) PairLen(v PairVar) int { return sol.pairVals[v].Len() }

// StmtR returns the solved r_s for a statement node.
func (sol *Solution) StmtR(st *syntax.Stmt) *intset.Set {
	return sol.setVals[sol.sys.StmtR[st.Instr.Label()]]
}

// StmtO returns the solved o_s for a statement node.
func (sol *Solution) StmtO(st *syntax.Stmt) *intset.Set {
	return sol.setVals[sol.sys.StmtO[st.Instr.Label()]]
}

// StmtM returns the solved m_s for a statement node (fresh copy).
func (sol *Solution) StmtM(st *syntax.Stmt) *intset.PairSet {
	return sol.PairValue(sol.sys.StmtM[st.Instr.Label()])
}

// MethodSummary returns the solved (mᵢ, oᵢ) for a method as a type
// summary.
func (sol *Solution) MethodSummary(mi int) types.Summary {
	return types.Summary{
		M: sol.PairValue(sol.sys.MethodM[mi]),
		O: sol.setVals[sol.sys.MethodO[mi]].Clone(),
	}
}

// Env converts the solved method summaries to a type environment, the
// "φ extends E" direction of Theorem 4.
func (sol *Solution) Env() types.Env {
	env := make(types.Env, len(sol.sys.P.Methods))
	for i := range env {
		env[i] = sol.MethodSummary(i)
	}
	return env
}

// MainM returns the solved m variable of the main method: by
// Theorem 3 a conservative approximation of MHP(p).
func (sol *Solution) MainM() *intset.PairSet {
	return sol.PairValue(sol.sys.MethodM[sol.sys.P.MainIndex])
}
