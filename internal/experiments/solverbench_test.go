package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"fx10/internal/constraints"
	"fx10/internal/labels"
	"fx10/internal/workloads"
)

// TestRunSolverBench checks the sweep's shape and its structural
// guarantees: exactly one cell per (benchmark, registered strategy),
// pass counts for phased and evaluations for topo, and the topo
// solver never evaluates a constraint more than once after SCC
// condensation, so its count stays within the constraint count.
func TestRunSolverBench(t *testing.T) {
	bench, err := RunSolverBench(1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(bench.Rows), 13*2; got != want {
		t.Fatalf("got %d rows, want %d", got, want)
	}
	for _, r := range bench.Rows {
		if r.NsPerOp <= 0 {
			t.Errorf("%s/%s: non-positive ns/op %d", r.Benchmark, r.Strategy, r.NsPerOp)
		}
		switch r.Strategy {
		case "phased":
			if r.Passes == 0 {
				t.Errorf("%s/%s: pass-based strategy reports 0 passes", r.Benchmark, r.Strategy)
			}
		case "topo":
			wl, err := workloads.Get(r.Benchmark)
			if err != nil {
				t.Fatal(err)
			}
			sys := constraints.Generate(labels.Compute(wl.Program()), constraints.ContextSensitive)
			_, l1, l2 := sys.Counts()
			if r.Evaluations == 0 || r.Evaluations > int64(l1+l2) {
				t.Errorf("%s/topo: %d evaluations, want 1..%d (each constraint at most once)", r.Benchmark, r.Evaluations, l1+l2)
			}
		default:
			t.Errorf("%s: unregistered strategy %q in the sweep", r.Benchmark, r.Strategy)
		}
	}

	path := filepath.Join(t.TempDir(), "bench.json")
	if err := WriteSolverBenchJSON(bench, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back SolverBench
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if len(back.Rows) != len(bench.Rows) {
		t.Fatalf("round-trip lost rows: %d != %d", len(back.Rows), len(bench.Rows))
	}
}
