package constraints

import (
	"context"
	"errors"
	"testing"
	"time"

	"fx10/internal/labels"
	"fx10/internal/parser"
	"fx10/internal/progen"
)

const cancelSrc = `
array 4;
void main() {
  finish {
    async { f(); }
    l1: a[0] = 1;
    f();
  }
}
void f() {
  finish {
    async { l2: a[1] = a[2] + 1; }
    g();
  }
}
void g() {
  while (a[3] != 0) { async { l3: a[2] = 0; } }
}
`

func cancelSystem(t *testing.T, mode Mode) *System {
	t.Helper()
	p, err := parser.Parse(cancelSrc)
	if err != nil {
		t.Fatal(err)
	}
	return Generate(labels.Compute(p), mode)
}

// SolveCtx with a live context must agree exactly with Solve, for
// every algorithm.
func TestSolveCtxMatchesSolve(t *testing.T) {
	for _, mode := range []Mode{ContextSensitive, ContextInsensitive} {
		sys := cancelSystem(t, mode)
		for _, alg := range Algorithms() {
			want := sys.Solve(alg)
			got, err := sys.SolveCtx(context.Background(), alg)
			if err != nil {
				t.Fatalf("%v %v: unexpected error %v", mode, alg, err)
			}
			if !got.MainM().Equal(want.MainM()) {
				t.Errorf("%v %v: SolveCtx diverges from Solve", mode, alg)
			}
		}
	}
}

// A context cancelled before the call returns immediately with its
// error and no solution.
func TestSolveCtxPreCancelled(t *testing.T) {
	sys := cancelSystem(t, ContextSensitive)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, alg := range Algorithms() {
		sol, err := sys.SolveCtx(ctx, alg)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: want context.Canceled, got %v", alg, err)
		}
		if sol != nil {
			t.Fatalf("%v: got partial solution on cancellation", alg)
		}
	}
}

// An expired deadline aborts the solve with DeadlineExceeded and no
// solution, in every algorithm (TestSolveCtxCancelMidSolve covers
// expiry after the solve has started).
func TestSolveCtxExpiredDeadline(t *testing.T) {
	sys := cancelSystem(t, ContextSensitive)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, alg := range Algorithms() {
		if sol, err := sys.SolveCtx(ctx, alg); !errors.Is(err, context.DeadlineExceeded) || sol != nil {
			t.Fatalf("%v: want context.DeadlineExceeded and no solution, got %v", alg, err)
		}
	}
}

// pollCtx is never done at SolveCtx's upfront check but reports
// DeadlineExceeded from then on, so only an in-loop stride poll can
// abort the solve.
type pollCtx struct {
	context.Context
	done  chan struct{}
	calls int
}

func (c *pollCtx) Done() <-chan struct{} { return c.done }

func (c *pollCtx) Err() error {
	c.calls++
	if c.calls == 1 {
		return nil
	}
	return context.DeadlineExceeded
}

// Every algorithm polls the context inside its solver loops: on a
// system with far more than CancelStride evaluations, a context that
// expires after the upfront check still aborts the solve with no
// partial solution.
func TestSolveCtxCancelMidSolve(t *testing.T) {
	p := progen.GenerateHuge(1, progen.Huge(1000))
	sys := Generate(labels.Compute(p), ContextSensitive)
	for _, alg := range Algorithms() {
		ctx := &pollCtx{Context: context.Background(), done: make(chan struct{})}
		sol, err := sys.SolveCtx(ctx, alg)
		if !errors.Is(err, context.DeadlineExceeded) || sol != nil {
			t.Fatalf("%v: want context.DeadlineExceeded and no solution, got %v", alg, err)
		}
		if ctx.calls < 2 {
			t.Fatalf("%v: solver never polled the context", alg)
		}
	}
}

// SolveDeltaCtx: live context matches SolveDelta; cancelled context
// returns the context error.
func TestSolveDeltaCtx(t *testing.T) {
	sys := cancelSystem(t, ContextSensitive)
	prev := sys.Solve(Phased)

	got, info, err := sys.SolveDeltaCtx(context.Background(), prev, []MethodID{0})
	if err != nil {
		t.Fatal(err)
	}
	want, winfo := sys.SolveDelta(prev, []MethodID{0})
	if !got.MainM().Equal(want.MainM()) || info.MethodsResolved != winfo.MethodsResolved {
		t.Fatal("SolveDeltaCtx diverges from SolveDelta")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, _, err := sys.SolveDeltaCtx(ctx, prev, []MethodID{0})
	if !errors.Is(err, context.Canceled) || sol != nil {
		t.Fatalf("want (nil, context.Canceled), got (%v, %v)", sol, err)
	}
}
