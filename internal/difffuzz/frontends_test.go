package difffuzz

import (
	"math/rand"
	"testing"

	"fx10/internal/progen"
)

// TestCrossFrontendOracle is acceptance criterion 3 of the front-end
// boundary: ≥ 200 generated programs, rendered both as X10 and as Go
// and lowered through both front ends, must yield bit-identical MHP
// reports under every solving algorithm, and the runtime
// observer must stay within the static relation on the Go-lowered
// programs.
func TestCrossFrontendOracle(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 40
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < n; i++ {
		seed := rng.Int63()
		p := normalize(progen.Generate(seed, progen.Finite()))
		for _, v := range CheckFrontends(p, seed, nil) {
			t.Fatalf("program %d: %v", i, v)
		}
	}
}

// TestCrossFrontendOracleLoops re-runs the oracle on the full-calculus
// corpus (while loops enabled), where the Go rendering exercises `for`
// and the runtime runs are fuel-bounded.
func TestCrossFrontendOracleLoops(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 15
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < n; i++ {
		seed := rng.Int63()
		p := normalize(progen.Generate(seed, progen.Default()))
		for _, v := range CheckFrontends(p, seed, nil) {
			t.Fatalf("program %d: %v", i, v)
		}
	}
}

// TestCrossFrontendSkipsClocked: clocked programs have no Go
// rendering; the oracle must skip them rather than report an error.
func TestCrossFrontendSkipsClocked(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 10; i++ {
		seed := rng.Int63()
		p := normalize(progen.Generate(seed, progen.ClockedFinite()))
		if !p.UsesClocks() {
			continue
		}
		if vs := CheckFrontends(p, seed, nil); len(vs) != 0 {
			t.Fatalf("clocked program %d: expected skip, got %v", i, vs[0])
		}
	}
}

// TestRunWithFrontendOracle wires the oracle through the Run
// config, the path `fx10 fuzz -frontends` uses.
func TestRunWithFrontendOracle(t *testing.T) {
	rep, err := Run(Config{Seeds: []int64{5}, N: 10, Frontends: true, Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations[0])
	}
}
