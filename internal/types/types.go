// Package types implements the may-happen-in-parallel type system of
// Section 4 of the paper (Figure 4, rules (45)–(56)).
//
// By the unique-typing lemma (Lemma 8), given a program p, a type
// environment E and a label set R, every statement s has exactly one
// typing p, E, R ⊢ s : M, O — so the type rules are implemented as a
// judgment *computation*. Type checking (⊢ p : E) computes each
// method body's judgment under R = ∅ and compares it with E; direct
// type inference iterates the judgment from the bottom environment
// E₀ = {fᵢ ↦ (∅, ∅)} to its least fixed point, which Theorem 4 makes
// equal to the least solution of the constraint system.
//
// Statement continuations may be absent (nil). The paper's grammar
// makes skip the only statement terminator, but its own examples end
// statements with calls and asyncs; we therefore type an empty
// continuation as (∅, R), which specializes every rule to the
// paper's when the continuation is present and extends it
// conservatively when it is not. See the corresponding note in
// internal/machine.
package types

import (
	"fmt"

	"fx10/internal/intset"
	"fx10/internal/labels"
	"fx10/internal/syntax"
	"fx10/internal/tree"
)

// Summary is one method's type: the pair (M, O) of the method's
// may-happen-in-parallel set and the labels of statements that may
// still be executing when a call to the method returns.
type Summary struct {
	M *intset.PairSet
	O *intset.Set
}

// Clone returns an independent copy.
func (s Summary) Clone() Summary {
	return Summary{M: s.M.Clone(), O: s.O.Clone()}
}

// Equal reports whether two summaries are identical.
func (s Summary) Equal(t Summary) bool {
	return s.M.Equal(t.M) && s.O.Equal(t.O)
}

// Env is a type environment E: one summary per method, indexed like
// Program.Methods.
type Env []Summary

// NewEnv returns the bottom environment E₀ = {fᵢ ↦ (∅, ∅)} for a
// program with the given label universe.
func NewEnv(p *syntax.Program) Env {
	n := p.NumLabels()
	env := make(Env, len(p.Methods))
	for i := range env {
		env[i] = Summary{M: intset.NewPairs(n), O: intset.New(n)}
	}
	return env
}

// Clone returns an independent copy of the environment.
func (e Env) Clone() Env {
	c := make(Env, len(e))
	for i := range e {
		c[i] = e[i].Clone()
	}
	return c
}

// Equal reports whether two environments are identical.
func (e Env) Equal(o Env) bool {
	if len(e) != len(o) {
		return false
	}
	for i := range e {
		if !e[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Checker computes typing judgments for one program.
type Checker struct {
	in *labels.Info
	p  *syntax.Program
	n  int
}

// NewChecker returns a Checker using the given Slabels fixpoint.
func NewChecker(in *labels.Info) *Checker {
	return &Checker{in: in, p: in.Program(), n: in.NumLabels()}
}

// Info returns the underlying label info.
func (c *Checker) Info() *labels.Info { return c.in }

// JudgeStmt computes the unique M, O with p, E, R ⊢ s : M, O
// (rules (50)–(56)). R is not mutated; the results are fresh.
func (c *Checker) JudgeStmt(env Env, r *intset.Set, s *syntax.Stmt) (*intset.PairSet, *intset.Set) {
	m := intset.NewPairs(c.n)
	o := c.judgeInto(m, env, r, s)
	return m, o
}

// judgeInto accumulates the statement's M into m and returns its O.
func (c *Checker) judgeInto(m *intset.PairSet, env Env, r *intset.Set, s *syntax.Stmt) *intset.Set {
	if s == nil {
		return r.Clone()
	}
	i := s.Instr
	k := s.Next
	l := i.Label()
	switch i := i.(type) {
	case *syntax.Skip:
		// Rules (50), (51): M = Lcross(l, R) ∪ M₁, O = O₁.
		c.in.AddLcross(m, l, r)
		return c.judgeInto(m, env, r, k)

	case *syntax.Assign:
		// Rule (52): as for skip.
		c.in.AddLcross(m, l, r)
		return c.judgeInto(m, env, r, k)

	case *syntax.Next:
		// Clock erasure: a barrier synchronizes, so ignoring it (skip
		// rule) can only add MHP pairs — sound. The clocks package
		// refines the result with barrier phases.
		c.in.AddLcross(m, l, r)
		return c.judgeInto(m, env, r, k)

	case *syntax.While:
		// Rule (53): the body is assumed to run at least twice, so it
		// pairs with its own O₁; the continuation starts from O₁.
		o1 := c.judgeInto(m, env, r, i.Body)
		c.in.AddLcross(m, l, o1)
		c.in.AddScross(m, i.Body, o1)
		return c.judgeInto(m, env, o1, k)

	case *syntax.Async:
		// Rule (54): body and continuation each see the other's
		// Slabels added to R.
		rBody := r.Clone()
		rBody.UnionWith(c.in.Slabels(k))
		rCont := r.Clone()
		rCont.UnionWith(c.in.Slabels(i.Body))
		c.in.AddLcross(m, l, r)
		c.judgeInto(m, env, rBody, i.Body)
		return c.judgeInto(m, env, rCont, k)

	case *syntax.Finish:
		// Rule (55): the body's O is discarded — whatever the body
		// spawned has terminated when the continuation starts.
		c.in.AddLcross(m, l, r)
		c.judgeInto(m, env, r, i.Body)
		return c.judgeInto(m, env, r, k)

	case *syntax.Call:
		// Rule (56): splice in the method summary; anything running
		// in parallel with the call may run in parallel with the
		// whole callee body.
		sum := env[i.Method]
		c.in.AddLcross(m, l, r)
		c.in.AddScross(m, c.p.Methods[i.Method].Body, r)
		m.UnionWith(sum.M)
		rk := r.Clone()
		rk.UnionWith(sum.O)
		return c.judgeInto(m, env, rk, k)
	}
	panic(fmt.Sprintf("types: unknown instruction %T", i))
}

// JudgeTree computes the unique M with p, E, R ⊢ T : M
// (rules (46)–(49)).
func (c *Checker) JudgeTree(env Env, r *intset.Set, t tree.Tree) *intset.PairSet {
	m := intset.NewPairs(c.n)
	c.judgeTreeInto(m, env, r, t)
	return m
}

func (c *Checker) judgeTreeInto(m *intset.PairSet, env Env, r *intset.Set, t tree.Tree) {
	switch t := t.(type) {
	case tree.DoneT:
		// Rule (49): √ types with M = ∅.

	case *tree.Fin:
		// Rule (46): both sides under the same R.
		c.judgeTreeInto(m, env, r, t.L)
		c.judgeTreeInto(m, env, r, t.R)

	case *tree.Par:
		// Rule (47): each side's R is extended with the other side's
		// Tlabels.
		rl := r.Clone()
		rl.UnionWith(c.in.Tlabels(t.R))
		rr := r.Clone()
		rr.UnionWith(c.in.Tlabels(t.L))
		c.judgeTreeInto(m, env, rl, t.L)
		c.judgeTreeInto(m, env, rr, t.R)

	case *tree.Leaf:
		// Rule (48): type the statement, discard its O.
		c.judgeInto(m, env, r, t.S)

	default:
		panic(fmt.Sprintf("types: unknown tree %T", t))
	}
}

// MethodSummary computes the summary rule (45) assigns to method mi
// under env: p, E, ∅ ⊢ sᵢ : Mᵢ, Oᵢ.
func (c *Checker) MethodSummary(env Env, mi int) Summary {
	m, o := c.JudgeStmt(env, intset.New(c.n), c.p.Methods[mi].Body)
	return Summary{M: m, O: o}
}

// Check verifies ⊢ p : E (rule (45)): each method body's judgment
// under R = ∅ must equal E's summary for the method. It returns nil
// on success and a descriptive error for the first mismatch.
func (c *Checker) Check(env Env) error {
	if len(env) != len(c.p.Methods) {
		return fmt.Errorf("types: environment has %d summaries for %d methods", len(env), len(c.p.Methods))
	}
	for mi, meth := range c.p.Methods {
		got := c.MethodSummary(env, mi)
		if !got.M.Equal(env[mi].M) {
			return fmt.Errorf("types: method %q: M mismatch (judged %d pairs, env %d pairs)",
				meth.Name, got.M.Len(), env[mi].M.Len())
		}
		if !got.O.Equal(env[mi].O) {
			return fmt.Errorf("types: method %q: O mismatch (judged %v, env %v)",
				meth.Name, got.O, env[mi].O)
		}
	}
	return nil
}

// InferResult is the outcome of direct type inference.
type InferResult struct {
	Env        Env
	Iterations int // fixpoint passes, including the final stable one
}

// Infer computes the least type environment E with ⊢ p : E by
// iterating rule (45) from the bottom environment: the judgment is
// monotone in E over a finite lattice, so the iteration reaches the
// least fixed point (Theorems 5 and 6 via Theorem 4).
func (c *Checker) Infer() InferResult {
	env := NewEnv(c.p)
	iters := 0
	for {
		iters++
		changed := false
		next := make(Env, len(env))
		for mi := range c.p.Methods {
			next[mi] = c.MethodSummary(env, mi)
			if !next[mi].Equal(env[mi]) {
				changed = true
			}
		}
		env = next
		if !changed {
			return InferResult{Env: env, Iterations: iters}
		}
	}
}
