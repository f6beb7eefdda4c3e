package engine

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"fx10/internal/constraints"
)

// Strategy is one way of computing the least solution of a generated
// constraint system. Theorems 5–6 guarantee every strategy reaches
// the same solution; strategies differ only in how they iterate (and
// therefore in time, space and the metrics they report). Strategies
// must be safe for concurrent use: the engine calls Solve from many
// worker goroutines.
type Strategy interface {
	// Name is the registry key ("phased", "topo", …).
	Name() string
	// Solve computes the least solution of sys.
	Solve(sys *constraints.System) *constraints.Solution
}

// ContextStrategy is a Strategy that supports cooperative
// cancellation. The engine prefers SolveContext whenever the request
// context can actually be cancelled; strategies without it still work
// but run to completion once started. Both built-in strategies
// implement it (the constraints solvers poll the context every
// constraints.CancelStride evaluations).
type ContextStrategy interface {
	Strategy
	// SolveContext computes the least solution of sys, aborting with
	// ctx.Err() if ctx is cancelled mid-solve. A partial solution is
	// never returned.
	SolveContext(ctx context.Context, sys *constraints.System) (*constraints.Solution, error)
}

// solveWith runs strat on sys honouring ctx where the strategy can:
// a cancellable context routes through SolveContext; a strategy
// without one is bracketed by upfront and after-the-fact polls.
func solveWith(ctx context.Context, strat Strategy, sys *constraints.System) (*constraints.Solution, error) {
	if ctx.Done() == nil {
		return strat.Solve(sys), nil
	}
	if cs, ok := strat.(ContextStrategy); ok {
		return cs.SolveContext(ctx, sys)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sol := strat.Solve(sys)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return sol, nil
}

// DefaultStrategy is the strategy an Engine uses when its Config
// names none: topological SCC solving, the production solver. The
// paper's three-phase solver (Section 5.3) stays registered as
// "phased", the reference the others are checked against.
const DefaultStrategy = "topo"

// algorithmStrategy adapts a constraints.Algorithm to the Strategy
// interface; both built-in strategies are spellings of it, named
// after their algorithm.
type algorithmStrategy struct {
	alg constraints.Algorithm
}

func (s algorithmStrategy) Name() string { return s.alg.String() }

func (s algorithmStrategy) Solve(sys *constraints.System) *constraints.Solution {
	return sys.Solve(s.alg)
}

func (s algorithmStrategy) SolveContext(ctx context.Context, sys *constraints.System) (*constraints.Solution, error) {
	return sys.SolveCtx(ctx, s.alg)
}

var (
	registryMu sync.RWMutex
	registry   = map[string]Strategy{}
)

func init() {
	MustRegister(algorithmStrategy{constraints.Phased})
	MustRegister(algorithmStrategy{constraints.Topo})
}

// Register adds a strategy to the registry. It fails on an empty name
// or a name already taken: strategies are identities (they key the
// result cache), so silent replacement would corrupt cached results.
func Register(s Strategy) error {
	name := s.Name()
	if name == "" {
		return fmt.Errorf("engine: strategy has empty name")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		return fmt.Errorf("engine: strategy %q already registered", name)
	}
	registry[name] = s
	return nil
}

// MustRegister is Register, panicking on error — for init-time
// wiring.
func MustRegister(s Strategy) {
	if err := Register(s); err != nil {
		panic(err)
	}
}

// UnknownStrategyError is returned by Lookup for an unregistered
// name. It is a distinct type so command-line front ends can map it
// to a usage exit code; Known lists the registered names, sorted.
type UnknownStrategyError struct {
	Name  string
	Known []string
}

func (e *UnknownStrategyError) Error() string {
	return fmt.Sprintf("engine: unknown strategy %q (have %v)", e.Name, e.Known)
}

// Lookup resolves a strategy name; the empty name resolves to
// DefaultStrategy.
func Lookup(name string) (Strategy, error) {
	if name == "" {
		name = DefaultStrategy
	}
	registryMu.RLock()
	defer registryMu.RUnlock()
	s, ok := registry[name]
	if !ok {
		return nil, &UnknownStrategyError{Name: name, Known: strategyNamesLocked()}
	}
	return s, nil
}

// Strategies returns the registered strategy names, sorted.
func Strategies() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	return strategyNamesLocked()
}

func strategyNamesLocked() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
