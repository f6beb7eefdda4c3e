package experiments

import (
	"strings"
	"testing"

	"fx10/internal/constraints"
	"fx10/internal/syntax"
)

func TestFigure5ContainsPaperConstraints(t *testing.T) {
	out := Figure5()
	for _, frag := range []string{
		"r_S13 = {S2} ∪ r_S1",
		"m_S6 = Lcross(S6, r_S6) ∪ m_S11 ∪ m_S7",
		"m_S12 = Lcross(S12, r_S12)",
	} {
		if !strings.Contains(out, frag) {
			t.Fatalf("Figure 5 output missing %q:\n%s", frag, out)
		}
	}
}

func TestExamplesMatchPaper(t *testing.T) {
	for _, run := range []func() (ExampleResult, error){Example21, Example22} {
		ex, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if !ex.Match {
			t.Fatalf("%s: inferred %v, paper expects %v", ex.Name, ex.Pairs, ex.Expected)
		}
	}
}

func TestFigure6Rows(t *testing.T) {
	rows := Figure6()
	if len(rows) != 13 {
		t.Fatalf("rows = %d, want 13", len(rows))
	}
	for _, r := range rows {
		if r.AsyncTotal != r.Paper.AsyncTotal {
			t.Errorf("%s: async total %d != paper %d", r.Name, r.AsyncTotal, r.Paper.AsyncTotal)
		}
		if r.Slabels == 0 || r.Level1 == 0 || r.Level2 == 0 {
			t.Errorf("%s: zero constraint counts", r.Name)
		}
		// The paper's structural invariant: level-2 constraints are
		// one per statement plus one per method; Slabels is one per
		// statement.
		if r.Level2 <= r.Slabels {
			t.Errorf("%s: level-2 (%d) should exceed Slabels (%d)", r.Name, r.Level2, r.Slabels)
		}
	}
	out := FormatFigure6(rows)
	if !strings.Contains(out, "plasma") || !strings.Contains(out, "benchmark") {
		t.Fatalf("format output malformed:\n%s", out)
	}
}

func TestFigure7Rows(t *testing.T) {
	rows := Figure7()
	if len(rows) != 13 {
		t.Fatalf("rows = %d", len(rows))
	}
	out := FormatFigure7(rows)
	if !strings.Contains(out, "switch") {
		t.Fatalf("format output missing header:\n%s", out)
	}
}

func TestFigure8And9(t *testing.T) {
	if testing.Short() {
		t.Skip("full inference over all benchmarks")
	}
	rows, err := Figure8()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 13 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.TimeMS < 0 || r.SpaceMB <= 0 {
			t.Errorf("%s: missing metrics %+v", r.Name, r)
		}
		if r.IterSlabels < 2 || r.IterL1 < 2 || r.IterL2 < 2 {
			t.Errorf("%s: implausible iteration counts", r.Name)
		}
	}
	out := FormatFigure8(rows)
	if !strings.Contains(out, "self") {
		t.Fatalf("figure 8 format malformed")
	}

	rows9, err := Figure9()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows9) != 4 {
		t.Fatalf("figure 9 rows = %d, want 4", len(rows9))
	}
	// The headline result: context-insensitive analysis produces more
	// pairs, needs more level-1 passes and more space on both large
	// benchmarks.
	for i := 0; i < 4; i += 2 {
		cs, ci := rows9[i], rows9[i+1]
		if cs.Mode != constraints.ContextSensitive || ci.Mode != constraints.ContextInsensitive {
			t.Fatalf("row order wrong")
		}
		if ci.Pairs.Total <= cs.Pairs.Total {
			t.Errorf("%s: CI pairs (%d) not above CS (%d)", cs.Name, ci.Pairs.Total, cs.Pairs.Total)
		}
		if ci.Pairs.Diff <= cs.Pairs.Diff {
			t.Errorf("%s: CI diff pairs (%d) not above CS (%d)", cs.Name, ci.Pairs.Diff, cs.Pairs.Diff)
		}
		if ci.IterL1 <= cs.IterL1 {
			t.Errorf("%s: CI level-1 iterations (%d) not above CS (%d)", cs.Name, ci.IterL1, cs.IterL1)
		}
		// Space is the solved valuation's footprint estimate, which is
		// deterministic; time is too noisy to pin.
		if ci.SpaceMB <= cs.SpaceMB {
			t.Errorf("%s: CI space (%.2f MB) not above CS (%.2f MB)", cs.Name, ci.SpaceMB, cs.SpaceMB)
		}
	}
	out9 := FormatFigure9(rows9)
	if !strings.Contains(out9, "context-insensitive") {
		t.Fatalf("figure 9 format malformed")
	}
}

func TestCorpusParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("two full corpus sweeps")
	}
	run, err := Corpus(4)
	if err != nil {
		t.Fatal(err)
	}
	if !run.Identical {
		t.Fatal("parallel corpus results differ from sequential")
	}
	if len(run.Rows) != 13 {
		t.Fatalf("rows = %d, want 13", len(run.Rows))
	}
	// The parallel rows are the Figure 8 table: pair counts must
	// match the sequential figure exactly.
	fig8, err := Figure8()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range run.Rows {
		if r.Pairs != fig8[i].Pairs {
			t.Errorf("%s: corpus pairs %+v != figure 8 pairs %+v", r.Name, r.Pairs, fig8[i].Pairs)
		}
	}
	if run.Workers != 4 {
		t.Errorf("workers = %d, want 4", run.Workers)
	}
	out := FormatCorpus(run)
	for _, frag := range []string{"speedup", "identical to sequential: true", "workers: 4"} {
		if !strings.Contains(out, frag) {
			t.Errorf("corpus output missing %q:\n%s", frag, out)
		}
	}
}

func TestTablePanicsOnBadRow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("short row did not panic")
		}
	}()
	var b strings.Builder
	tw := newTable(&b, "a", "b")
	tw.row("only one")
}

func TestScaling(t *testing.T) {
	rows, err := Scaling([]int{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		if r.Labels == 0 {
			t.Fatalf("%s/%d: no labels", r.Family, r.Size)
		}
	}
	// wide(n) has Θ(n²) pairs: going 10 → 20 should roughly
	// quadruple them.
	var w10, w20 int
	for _, r := range rows {
		if r.Family == "wide" && r.Size == 10 {
			w10 = r.Pairs
		}
		if r.Family == "wide" && r.Size == 20 {
			w20 = r.Pairs
		}
	}
	if w20 < 3*w10 {
		t.Fatalf("wide pairs did not grow quadratically: %d → %d", w10, w20)
	}
	out := FormatScaling(rows)
	if !strings.Contains(out, "growth-exp") || !strings.Contains(out, "chain") {
		t.Fatalf("format malformed:\n%s", out)
	}
}

func TestScalingProgramsValid(t *testing.T) {
	for _, n := range []int{1, 5, 50} {
		for name, p := range map[string]func(int) *syntax.Program{
			"chain": ChainProgram, "wide": WideProgram, "loops": LoopsProgram,
		} {
			if err := syntax.Validate(p(n)); err != nil {
				t.Fatalf("%s(%d): %v", name, n, err)
			}
		}
	}
}
