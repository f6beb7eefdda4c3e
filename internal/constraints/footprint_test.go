package constraints_test

import (
	"testing"

	"fx10/internal/constraints"
	"fx10/internal/labels"
	"fx10/internal/syntax"
	"fx10/internal/workloads"
)

// setBytes is the dense-set part of a footprint estimate: one
// n-bit set (plus header) per set variable.
func setBytes(sys *constraints.System, p *syntax.Program) int {
	return sys.NumSetVars() * ((p.NumLabels()+63)/64*8 + 24)
}

// TestFootprintCountsSharedBagsOnce: topo's copy elision lets several
// variables alias one pair set. The footprint estimate must count each
// set once, so on the two largest paper workloads topo's figure is the
// distinct-set sum and never exceeds phased's, whose variables own
// their sets.
func TestFootprintCountsSharedBagsOnce(t *testing.T) {
	for _, name := range []string{"mg", "plasma"} {
		wl, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		p := wl.Program()
		sys := constraints.Generate(labels.Compute(p), constraints.ContextSensitive)
		topo := sys.Solve(constraints.Topo)
		if want := setBytes(sys, p) + constraints.DistinctPairSetBytes(topo); topo.FootprintBytes() != want {
			t.Errorf("%s: topo footprint %d, distinct-set sum %d", name, topo.FootprintBytes(), want)
		}
		phased := sys.Solve(constraints.Phased)
		if topo.FootprintBytes() > phased.FootprintBytes() {
			t.Errorf("%s: topo footprint %d exceeds phased %d", name, topo.FootprintBytes(), phased.FootprintBytes())
		}
	}
}
