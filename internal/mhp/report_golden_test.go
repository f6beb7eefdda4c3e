package mhp

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"fx10/internal/constraints"
	"fx10/internal/engine"
	"fx10/internal/parser"
	"fx10/internal/syntax"
	"fx10/internal/workloads"
)

// The JSON report must be byte-stable: identical across repeated runs
// of the same analysis (the committed golden files pin the exact
// bytes), and identical across solver strategies (Theorems 5–6: every
// strategy computes the same least solution, and the report carries
// no strategy-specific work counters). The clocked program
// additionally pins the phase section and the pruned-pair count,
// which are reconstructed post hoc from the least solution and so
// must not vary by strategy either.
func TestReportJSONGolden(t *testing.T) {
	cases := []struct {
		name, source, golden string
	}{
		{"fanout", "fanout.fx10", "fanout_report.golden.json"},
		{"phased", "phased.fx10", "phased_report.golden.json"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("..", "..", "testdata", tc.source))
			if err != nil {
				t.Fatal(err)
			}
			p, err := parser.Parse(string(src))
			if err != nil {
				t.Fatal(err)
			}

			render := func(strategy string) []byte {
				e, err := engine.New(engine.Config{Strategy: strategy, CacheSize: -1})
				if err != nil {
					t.Fatal(err)
				}
				res, err := e.Analyze(engine.Job{Name: tc.name, Program: p, Mode: constraints.ContextSensitive})
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := FromEngine(res).WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}

			first := render("")
			for run := 0; run < 3; run++ {
				if again := render(""); !bytes.Equal(first, again) {
					t.Fatalf("run %d: report JSON not byte-stable", run)
				}
			}

			golden := filepath.Join("testdata", tc.golden)
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, first, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with UPDATE_GOLDEN=1 to regenerate)", err)
			}
			if !bytes.Equal(first, want) {
				t.Errorf("report JSON drifted from golden file %s:\n got: %s\nwant: %s", golden, first, want)
			}

			// Cross-strategy: every registered strategy renders the
			// same bytes.
			for _, strategy := range engine.Strategies() {
				if got := render(strategy); !bytes.Equal(first, got) {
					t.Errorf("strategy %s: report differs:\n got: %s\nwant: %s", strategy, got, first)
				}
			}
		})
	}
}

// TestReportClocksSection pins the semantics of the clocks section:
// present exactly for clock-using programs, phases in label order,
// and the pruned-pair count consistent with a clock-blind solve.
func TestReportClocksSection(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "phased.fx10"))
	if err != nil {
		t.Fatal(err)
	}
	p := parser.MustParse(string(src))
	rep := MustAnalyze(p, constraints.ContextSensitive).Report()
	if rep.Clocks == nil {
		t.Fatal("clocked program report has no clocks section")
	}
	if len(rep.Clocks.Phases) != p.NumLabels() {
		t.Fatalf("clocks section has %d phases, want one per label (%d)",
			len(rep.Clocks.Phases), p.NumLabels())
	}
	if rep.Clocks.PrunedPairs == 0 {
		t.Error("split-phase program pruned no pairs")
	}
	// The two workers' cross-phase reads are serialized by the barrier:
	// phase(WL)=0, phase(RL)=1 must appear among the inferred phases.
	byName := map[string]int{}
	for _, ph := range rep.Clocks.Phases {
		byName[ph.Label] = ph.Phase
	}
	if byName["WL"] != 0 || byName["RL"] != 1 {
		t.Errorf("phases WL=%d RL=%d, want 0 and 1", byName["WL"], byName["RL"])
	}

	clean := MustAnalyze(parser.MustParse("array 2;\nvoid main() { A: async { B: a[0] = 1; } C: a[1] = 2; }"),
		constraints.ContextSensitive).Report()
	if clean.Clocks != nil {
		t.Error("clock-free program report has a clocks section")
	}
}

// TestReportStrategyIdentityPaperWorkloads: on the paper's 13
// workloads in both analysis modes, the production topo strategy
// renders exactly the bytes of the phased reference, and every method
// summary the report reads in place from the solution agrees with the
// type environment E materialized from it.
func TestReportStrategyIdentityPaperWorkloads(t *testing.T) {
	engines := map[string]*engine.Engine{}
	for _, name := range []string{"phased", "topo"} {
		engines[name] = engine.MustNew(engine.Config{Strategy: name, CacheSize: -1})
	}
	for _, wl := range workloads.All() {
		p := wl.Program()
		for _, mode := range []constraints.Mode{constraints.ContextSensitive, constraints.ContextInsensitive} {
			render := func(strategy string) []byte {
				res, err := engines[strategy].Analyze(engine.Job{Name: wl.Name, Program: p, Mode: mode})
				if err != nil {
					t.Fatal(err)
				}
				r := FromEngine(res)
				checkSummariesAgainstEnv(t, wl.Name+"/"+strategy, r)
				var buf bytes.Buffer
				if err := r.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			if phased, topo := render("phased"), render("topo"); !bytes.Equal(phased, topo) {
				t.Errorf("%s (%v): topo report (%d bytes) differs from phased (%d bytes)",
					wl.Name, mode, len(topo), len(phased))
			}
		}
	}
}

// checkSummariesAgainstEnv: each report summary must carry |Mᵢ| and
// the label names of Oᵢ from E = r.Sol.Env().
func checkSummariesAgainstEnv(t *testing.T, what string, r *Result) {
	t.Helper()
	env := r.Sol.Env()
	sums := r.Report().Summaries
	if len(sums) != len(env) {
		t.Fatalf("%s: %d method summaries, E has %d methods", what, len(sums), len(env))
	}
	for mi, s := range sums {
		if s.MPairs != env[mi].M.Len() {
			t.Errorf("%s %s: mPairs = %d, |M| = %d", what, s.Method, s.MPairs, env[mi].M.Len())
		}
		var want []string
		env[mi].O.Each(func(e int) { want = append(want, r.Program.LabelName(syntax.Label(e))) })
		if !slices.Equal(s.Outlives, want) {
			t.Errorf("%s %s: outlives = %v, O = %v", what, s.Method, s.Outlives, want)
		}
	}
}
