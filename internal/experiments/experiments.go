// Package experiments regenerates every table and figure of the
// paper's evaluation:
//
//	Figure 5 — the constraint system of the Section 2.1 example;
//	Figure 6 — static measurements of the 13 benchmarks;
//	Figure 7 — condensed node counts;
//	Figure 8 — type-inference time/space/iterations and async-body
//	           pair counts (context-sensitive);
//	Figure 9 — context-sensitive vs context-insensitive on mg and
//	           plasma;
//
// plus the Section 2.1/2.2 worked examples. Each figure is returned
// as structured rows carrying both the measured values and the
// paper's published values, and rendered as an aligned text table.
// cmd/mhpbench drives this package; EXPERIMENTS.md records one run.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"fx10/internal/condensed"
	"fx10/internal/constraints"
	"fx10/internal/engine"
	"fx10/internal/fixtures"
	"fx10/internal/labels"
	"fx10/internal/mhp"
	"fx10/internal/parser"
	"fx10/internal/syntax"
	"fx10/internal/workloads"
)

// figEngine runs every figure pipeline. It is pinned to the phased
// reference solver: Figures 8 and 9 compare its level-1 and level-2
// pass counts against the paper's iteration columns, and the
// production topo solver counts evaluations, not passes. Caching is
// off: each row's time column must be a real measurement, not a cache
// lookup (the corpus runner builds its own engines the same way).
var figEngine = engine.MustNew(engine.Config{Strategy: "phased", CacheSize: -1})

// Figure5 renders the generated constraint system for the Section 2.1
// example program, the reproduction of the paper's Figure 5.
func Figure5() string {
	p := fixtures.Example21()
	sys := constraints.Generate(labels.Compute(p), constraints.ContextSensitive)
	return sys.String()
}

// ExampleResult reports a worked example's analysis output as
// human-readable label pairs.
type ExampleResult struct {
	Name string
	// Pairs are the inferred unordered MHP pairs, sorted, as
	// "(A,B)" display names.
	Pairs []string
	// Expected are the paper's reported pairs in the same format.
	Expected []string
	// Match is whether they agree exactly.
	Match bool
}

// runExample analyzes one fixture program and compares with the
// paper's expected pairs.
func runExample(name, src string, expect [][2]string) (ExampleResult, error) {
	p, err := parser.Parse(src)
	if err != nil {
		return ExampleResult{}, fmt.Errorf("experiments: parse %s: %w", name, err)
	}
	r, err := mhp.Analyze(p, constraints.ContextSensitive)
	if err != nil {
		return ExampleResult{}, fmt.Errorf("experiments: analyze %s: %w", name, err)
	}
	var got []string
	r.M.Each(func(i, j int) {
		if i <= j {
			got = append(got, pairName(p, i, j))
		}
	})
	sort.Strings(got)
	var want []string
	for _, e := range expect {
		l1, _ := p.LabelByName(e[0])
		l2, _ := p.LabelByName(e[1])
		a, b := int(l1), int(l2)
		if a > b {
			a, b = b, a
		}
		want = append(want, pairName(p, a, b))
	}
	sort.Strings(want)
	return ExampleResult{
		Name:     name,
		Pairs:    got,
		Expected: want,
		Match:    strings.Join(got, " ") == strings.Join(want, " "),
	}, nil
}

func pairName(p *syntax.Program, i, j int) string {
	return "(" + p.LabelName(syntax.Label(i)) + "," + p.LabelName(syntax.Label(j)) + ")"
}

// Example21 reproduces the Section 2.1 analysis.
func Example21() (ExampleResult, error) {
	return runExample("example-2.1", fixtures.Example21Source, fixtures.Example21MHP)
}

// Example22 reproduces the Section 2.2 analysis.
func Example22() (ExampleResult, error) {
	return runExample("example-2.2", fixtures.Example22Source, fixtures.Example22MHP)
}

// Fig6Row is one measured-vs-paper row of Figure 6.
type Fig6Row struct {
	Name  string
	Paper workloads.PaperRow

	LOC        int
	AsyncTotal int
	AsyncLoop  int
	AsyncPlace int
	Slabels    int
	Level1     int
	Level2     int
}

// Figure6 computes the static measurements for all 13 benchmarks.
func Figure6() []Fig6Row {
	var rows []Fig6Row
	for _, b := range workloads.All() {
		s := b.Unit().AsyncStats()
		sys := constraints.Generate(labels.Compute(b.Program()), constraints.ContextSensitive)
		sl, l1, l2 := sys.Counts()
		rows = append(rows, Fig6Row{
			Name: b.Name, Paper: b.Paper,
			LOC: b.LOC(), AsyncTotal: s.Total, AsyncLoop: s.Loop, AsyncPlace: s.PlaceSwitch,
			Slabels: sl, Level1: l1, Level2: l2,
		})
	}
	return rows
}

// FormatFigure6 renders the rows, measured/paper.
func FormatFigure6(rows []Fig6Row) string {
	var b strings.Builder
	tw := newTable(&b, "benchmark", "LOC", "#async", "loop", "place", "Slabels", "level-1", "level-2")
	for _, r := range rows {
		tw.row(r.Name,
			mp(r.LOC, r.Paper.LOC),
			mp(r.AsyncTotal, r.Paper.AsyncTotal),
			mp(r.AsyncLoop, r.Paper.AsyncLoop),
			mp(r.AsyncPlace, r.Paper.AsyncPlace),
			mp(r.Slabels, r.Paper.SlabelsCons),
			mp(r.Level1, r.Paper.Level1Cons),
			mp(r.Level2, r.Paper.Level2Cons),
		)
	}
	tw.flush()
	return b.String()
}

// Fig7Row is one measured-vs-paper row of Figure 7.
type Fig7Row struct {
	Name   string
	Paper  workloads.NodeRow
	Counts condensed.Counts
}

// Figure7 computes the condensed node counts.
func Figure7() []Fig7Row {
	var rows []Fig7Row
	for _, b := range workloads.All() {
		rows = append(rows, Fig7Row{Name: b.Name, Paper: b.Paper.Nodes, Counts: b.Unit().NodeCounts()})
	}
	return rows
}

// FormatFigure7 renders the rows.
func FormatFigure7(rows []Fig7Row) string {
	var b strings.Builder
	tw := newTable(&b, "benchmark", "total", "end", "async", "call", "finish", "if", "loop", "method", "return", "skip", "switch")
	for _, r := range rows {
		c := r.Counts
		p := r.Paper
		tw.row(r.Name,
			mp(c.Total, p.Total),
			mp(c.Of(condensed.End), p.End),
			mp(c.Of(condensed.Async), p.Async),
			mp(c.Of(condensed.Call), p.Call),
			mp(c.Of(condensed.Finish), p.Finish),
			mp(c.Of(condensed.If), p.If),
			mp(c.Of(condensed.Loop), p.Loop),
			mp(c.Of(condensed.Method), p.Method),
			mp(c.Of(condensed.Return), p.Return),
			mp(c.Of(condensed.Skip), p.Skip),
			mp(c.Of(condensed.Switch), p.Switch),
		)
	}
	tw.flush()
	return b.String()
}

// Fig8Row is one measured-vs-paper row of Figure 8 (or one analysis
// row of Figure 9).
type Fig8Row struct {
	Name  string
	Mode  constraints.Mode
	Paper workloads.PaperRow

	TimeMS      float64
	SpaceMB     float64
	IterSlabels int
	IterL1      int
	IterL2      int
	Pairs       mhp.PairCounts
}

// analyzeBenchmark runs the full inference pipeline on a benchmark in
// the given mode through the engine, timing the analysis stages
// (Slabels fixpoint + constraint generation + solving), as the
// paper's Figure 8 does.
func analyzeBenchmark(b *workloads.Benchmark, mode constraints.Mode) (Fig8Row, error) {
	res, err := figEngine.Analyze(engine.Job{Name: b.Name, Program: b.Program(), Mode: mode})
	if err != nil {
		return Fig8Row{}, fmt.Errorf("experiments: analyze %s: %w", b.Name, err)
	}
	return fig8RowFrom(b, mode, res), nil
}

// fig8RowFrom converts one engine result to its figure row; the
// corpus runner reuses it on pool results.
func fig8RowFrom(b *workloads.Benchmark, mode constraints.Mode, res *engine.Result) Fig8Row {
	pairs := mhp.CountPairs(mhp.FromEngine(res).AsyncBodyPairs())
	return Fig8Row{
		Name: b.Name, Mode: mode, Paper: b.Paper,
		TimeMS:      float64(res.Stats.PipelineDuration().Microseconds()) / 1000.0,
		SpaceMB:     float64(res.Sol.FootprintBytes()) / (1 << 20),
		IterSlabels: res.Stats.IterSlabels,
		IterL1:      res.Stats.IterL1,
		IterL2:      res.Stats.IterL2,
		Pairs:       pairs,
	}
}

// Figure8 runs the context-sensitive inference on all benchmarks.
func Figure8() ([]Fig8Row, error) {
	var rows []Fig8Row
	for _, b := range workloads.All() {
		row, err := analyzeBenchmark(b, constraints.ContextSensitive)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatFigure8 renders the rows.
func FormatFigure8(rows []Fig8Row) string {
	var b strings.Builder
	tw := newTable(&b, "benchmark", "time(ms)", "space(MB)", "itSlab", "itL1", "itL2", "pairs", "self", "same", "diff")
	for _, r := range rows {
		tw.row(r.Name,
			fmt.Sprintf("%.1f/%d", r.TimeMS, r.Paper.TimeMS),
			fmt.Sprintf("%.1f/%d", r.SpaceMB, r.Paper.SpaceMB),
			mp(r.IterSlabels, r.Paper.IterSlab),
			mp(r.IterL1, r.Paper.IterL1),
			mp(r.IterL2, r.Paper.IterL2),
			mp(r.Pairs.Total, r.Paper.PairsTotal),
			mp(r.Pairs.Self, r.Paper.PairsSelf),
			mp(r.Pairs.Same, r.Paper.PairsSame),
			mp(r.Pairs.Diff, r.Paper.PairsDiff),
		)
	}
	tw.flush()
	b.WriteString("(measured/paper; paper numbers are from a 2010 dual-Xeon testbed)\n")
	return b.String()
}

// Figure9 runs both analyses on mg and plasma.
func Figure9() ([]Fig8Row, error) {
	var rows []Fig8Row
	for _, name := range []string{"mg", "plasma"} {
		b, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		for _, mode := range []constraints.Mode{constraints.ContextSensitive, constraints.ContextInsensitive} {
			row, err := analyzeBenchmark(b, mode)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatFigure9 renders the rows.
func FormatFigure9(rows []Fig8Row) string {
	var b strings.Builder
	tw := newTable(&b, "benchmark", "analysis", "time(ms)", "space(MB)", "itL1", "pairs", "self", "same", "diff")
	for _, r := range rows {
		pt, ps, pm, pd := r.Paper.PairsTotal, r.Paper.PairsSelf, r.Paper.PairsSame, r.Paper.PairsDiff
		ptime, pspace, pl1 := r.Paper.TimeMS, r.Paper.SpaceMB, r.Paper.IterL1
		if r.Mode == constraints.ContextInsensitive && r.Paper.CI != nil {
			ci := r.Paper.CI
			pt, ps, pm, pd = ci.PairsTotal, ci.PairsSelf, ci.PairsSame, ci.PairsDiff
			ptime, pspace, pl1 = ci.TimeMS, ci.SpaceMB, ci.IterL1
		}
		tw.row(r.Name, r.Mode.String(),
			fmt.Sprintf("%.1f/%d", r.TimeMS, ptime),
			fmt.Sprintf("%.1f/%d", r.SpaceMB, pspace),
			mp(r.IterL1, pl1),
			mp(r.Pairs.Total, pt),
			mp(r.Pairs.Self, ps),
			mp(r.Pairs.Same, pm),
			mp(r.Pairs.Diff, pd),
		)
	}
	tw.flush()
	b.WriteString("(measured/paper)\n")
	return b.String()
}

// mp formats "measured/paper".
func mp(measured, paper int) string { return fmt.Sprintf("%d/%d", measured, paper) }

// table is a minimal aligned-column writer.
type table struct {
	out     *strings.Builder
	headers []string
	rows    [][]string
}

func newTable(out *strings.Builder, headers ...string) *table {
	return &table{out: out, headers: headers}
}

func (t *table) row(cells ...string) {
	if len(cells) != len(t.headers) {
		panic(fmt.Sprintf("experiments: row has %d cells, want %d", len(cells), len(t.headers)))
	}
	t.rows = append(t.rows, cells)
}

func (t *table) flush() {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				t.out.WriteString("  ")
			}
			fmt.Fprintf(t.out, "%-*s", widths[i], c)
		}
		t.out.WriteByte('\n')
	}
	line(t.headers)
	for _, r := range t.rows {
		line(r)
	}
}
