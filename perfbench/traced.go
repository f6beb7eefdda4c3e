package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"fx10/internal/condensed"
	"fx10/internal/constraints"
	"fx10/internal/engine"
	"fx10/internal/fleet"
	"fx10/internal/frontend"
	"fx10/internal/labels"
	"fx10/internal/mhp"
	"fx10/internal/parser"
	"fx10/internal/server"
	"fx10/internal/syntax"
)

// stackSnapshot reads the in-process servers' and router's /metrics:
// the same counters, in the same shape, that the untraced run reads
// from the daemons' /debug/vars.
func stackSnapshot(ctx context.Context, st *stack) (snapshot, error) {
	var s snapshot
	for i, u := range st.urls {
		var v debugVars
		var err error
		if i < len(st.servers) {
			v.Daemon = &serverVars{}
			err = getJSON(ctx, u+"/metrics", v.Daemon)
		} else {
			v.Route = &routeVars{}
			err = getJSON(ctx, u+"/metrics", v.Route)
		}
		if err != nil {
			return s, err
		}
		s.vars = append(s.vars, v)
	}
	return s, nil
}

// queueWait is the count-weighted mean over servers of their
// queueWaitMs histogram quantile (exact for a single server). It reads
// the histogram itself: /metrics serves p50, p95 and p99 only.
func queueWait(st *stack, q float64) float64 {
	var sum, n float64
	for _, s := range st.servers {
		h := s.Metrics().Expvar().Get("queueWaitMs").(*server.Histogram)
		var head struct {
			Count float64 `json:"count"`
		}
		if json.Unmarshal([]byte(h.String()), &head) != nil {
			continue
		}
		sum += head.Count * h.Quantile(q)
		n += head.Count
	}
	return ratio(sum, n)
}

// tracedWindow is the traced window and what was read around it.
type tracedWindow struct {
	win             *window
	urls            []string
	before, after   snapshot
	gcBefore        runtime.MemStats
	gcAfter         runtime.MemStats
	queueP50, queue float64 // queue wait p50 and p90, ms
}

// runTraced replays the workload in-process once, every other request
// tagged and so timed by the middleware (tagged minus untagged latency
// is the tracing overhead), verifies every answer, and then calls the
// pipeline's public stage functions on the tagged requests for the
// per-layer times.
func runTraced(ctx context.Context, o options, c *corpus, dir string, rep *report) (result, error) {
	warm, err := warmups(c, o.workload, o.seed, o.clients)
	if err != nil {
		return result{}, err
	}
	part := time.Duration(o.seconds) * time.Second / 2
	reqs, err := generate(c, o.workload, o.seed, o.clients, part)
	if err != nil {
		return result{}, err
	}
	tr := &tracer{}
	tw, err := tracedRun(ctx, o, dir, warm, reqs, tr, part)
	if err != nil {
		return result{}, err
	}
	orc, err := newOracle()
	if err != nil {
		return result{}, err
	}
	if err := verify(c, orc, o.workload, reqs, tw.win); err != nil {
		return result{}, err
	}

	rp, err := newReplayer(o, filepath.Join(dir, "replay"), tr, warm)
	if err != nil {
		return result{}, err
	}
	defer rp.close()
	if err := rp.replay(reqs, tw.win, part); err != nil {
		return result{}, err
	}

	outs := tw.win.all()
	failed := countFailed(outs)
	rep.Ops = opTable(outs)
	rep.ErrorRate = ratio(float64(failed), float64(len(outs)))
	rep.Failures = describeFailures(outs)
	rep.Exhausted = tw.win.exhausted
	rep.Endpoints = tw.urls
	rep.Input = inputProps(outs, serverDelta(tw.before, tw.after))
	rep.Overhead = tracingOverhead(outs)
	spansPath := filepath.Join(o.workdir, "results", fmt.Sprintf("%s-seed%d-spans.jsonl", o.workload, o.seed))
	rep.Spans = spansPath
	rep.PerLayer = perLayer(tw, rep.Input, rep.Overhead, rp, tr.spans)
	rep.SelfMs = selfByName(tr.spans)
	if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
		return result{}, err
	}
	if err := writeSpans(spansPath, tr.spans); err != nil {
		return result{}, err
	}
	return result{Correct: failed == 0, Attempted: len(outs), Failed: failed, Metrics: rep.PerLayer}, nil
}

// tracedRun starts the in-process stack under the middleware, warms
// it and runs the window.
func tracedRun(ctx context.Context, o options, dir string, warm []request, reqs [][]request, tr *tracer, dur time.Duration) (*tracedWindow, error) {
	st, err := startStack(o.workload, dir, tr)
	if err != nil {
		return nil, err
	}
	defer st.close()
	d := newDriver(st.entry, o.clients, tr)
	defer d.close()
	if err := d.warm(ctx, warm); err != nil {
		return nil, err
	}
	tw := &tracedWindow{urls: st.urls}
	if tw.before, err = stackSnapshot(ctx, st); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&tw.gcBefore)
	tw.win = d.run(ctx, reqs, dur)
	runtime.ReadMemStats(&tw.gcAfter)
	if tw.after, err = stackSnapshot(ctx, st); err != nil {
		return nil, err
	}
	tw.queueP50, tw.queue = queueWait(st, 0.5), queueWait(st, 0.9)
	return tw, nil
}

// replayer calls the pipeline's public stage functions on recorded
// requests, one span per call, all children of a per-request replay
// span whose parent is the request's client span.
type replayer struct {
	workload string
	eng      *engine.Engine
	tr       *tracer
	s        samples
	bases    map[int]*engine.Result // delta session bases by client
	n        int                    // requests replayed
}

// newReplayer builds an engine configured like the daemon's and warms
// it with the same requests the daemon was warmed with.
func newReplayer(o options, dir string, tr *tracer, warm []request) (*replayer, error) {
	_, sc := replicaSetup(o.workload, filepath.Join(dir, "store"))
	eng, err := engine.New(engine.Config{
		CacheSize:          sc.CacheSize,
		SummaryStorePath:   sc.SummaryStorePath,
		SummaryStoreShared: sc.SummaryStoreShared,
	})
	if err != nil {
		return nil, err
	}
	rp := &replayer{workload: o.workload, eng: eng, tr: tr, s: samples{}, bases: map[int]*engine.Result{}}
	for _, r := range warm {
		p, err := lowerSource(r.Source, r.Language)
		if err != nil {
			rp.close()
			return nil, err
		}
		res, err := eng.Analyze(engine.Job{Program: p})
		if err != nil {
			rp.close()
			return nil, err
		}
		if r.Op == opDelta {
			rp.bases[r.Client] = res
		}
	}
	return rp, nil
}

func (rp *replayer) close() { _ = rp.eng.Close() }

// replay walks the window's tagged requests in send order,
// round-robin over clients, until budget is spent.
func (rp *replayer) replay(reqs [][]request, w *window, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for i := 0; time.Now().Before(deadline); i++ {
		progressed := false
		for cl, outs := range w.outs {
			if i >= len(outs) {
				continue
			}
			progressed = true
			if !outs[i].tagged() {
				continue
			}
			if err := rp.one(&reqs[cl][i], &outs[i]); err != nil {
				return err
			}
			rp.n++
		}
		if !progressed {
			break
		}
	}
	return nil
}

func (rp *replayer) one(r *request, out *outcome) error {
	root := span{ID: rp.tr.newID(), Parent: out.spanID, ReqID: out.reqID, Name: "replay." + r.Op, Start: time.Now()}
	timed := func(name string, f func()) time.Duration {
		s := span{ID: rp.tr.newID(), Parent: root.ID, ReqID: out.reqID, Name: name, Start: time.Now()}
		f()
		s.End = time.Now()
		rp.tr.add(s)
		return s.dur()
	}
	defer func() {
		root.End = time.Now()
		rp.tr.add(root)
	}()

	isAnalyze := r.Path == "/v1/analyze"
	var err error
	d := timed("server.decode", func() {
		switch r.Op {
		case opQuery:
			err = json.Unmarshal(r.Body, &server.QueryRequest{})
		case opDelta:
			err = json.Unmarshal(r.Body, &server.DeltaRequest{})
		default:
			err = json.Unmarshal(r.Body, &server.AnalyzeRequest{})
		}
	})
	if err != nil {
		return err
	}
	if isAnalyze {
		rp.s.add("decode_us", us(d))
	}
	if rp.workload == wFleetHot {
		rp.s.add("route_key_us", us(timed("fleet.route_key", func() { fleet.RouteKey(r.Path, r.Body) })))
	}
	if r.Op == opQuery {
		return nil
	}

	var p *syntax.Program
	if r.Language != "" {
		f, err := frontend.Lookup(r.Language)
		if err != nil {
			return err
		}
		var u *condensed.Unit
		rp.s.add("frontend_ms", ms(timed("frontend.lower", func() { u, _, err = f.Lower(r.Source) })))
		if err != nil {
			return err
		}
		rp.s.add("condensed_ms", ms(timed("condensed.lower", func() { p, err = condensed.Lower(u) })))
	} else {
		rp.s.add("parse_ms", ms(timed("parser.parse", func() { p, err = parser.Parse(r.Source) })))
	}
	if err != nil {
		return err
	}

	var res *engine.Result
	if r.Op == opDelta {
		timed("engine.analyze_delta", func() { res, err = rp.eng.AnalyzeDelta(rp.bases[r.Client], p) })
		if err != nil {
			return err
		}
		rp.bases[r.Client] = res
		if ds := res.Stats.Delta; ds != nil {
			rp.s.add("delta_resolved", float64(ds.MethodsResolved))
			rp.s.add("delta_reevaluated", float64(ds.ConstraintsReevaluated))
		}
	} else {
		timed("engine.analyze", func() { res, err = rp.eng.Analyze(engine.Job{Program: p}) })
		if err != nil {
			return err
		}
		st := res.Stats
		staged := st.Parse + st.Report
		if !st.CacheHit {
			staged += st.Labels + st.Generate + st.Solve
		}
		rp.s.add("env_m_ms", ms(st.Report))
		rp.s.add("unstaged_ms", ms(st.Total-staged))
		if !st.CacheHit {
			rp.stages(p, timed)
		}
	}

	var rep mhp.Report
	rp.s.add("report_ms", ms(timed("mhp.report", func() { rep = mhp.FromEngine(res).Report() })))
	enc := timed("server.encode", func() {
		resp := server.AnalyzeResponse{ProgramHash: rep.ProgramHash, Cached: res.Stats.CacheHit, Report: rep}
		var buf bytes.Buffer
		e := json.NewEncoder(&buf)
		e.SetIndent("", "  ")
		err = e.Encode(resp)
	})
	if isAnalyze {
		rp.s.add("encode_ms", ms(enc))
	}
	return err
}

// stages calls labels, generation and the daemon's solver directly,
// the stages engine.Analyze runs on a program-cache miss.
func (rp *replayer) stages(p *syntax.Program, timed func(string, func()) time.Duration) {
	var info *labels.Info
	rp.s.add("labels_ms", ms(timed("labels.compute", func() { info = labels.Compute(p) })))
	var sys *constraints.System
	rp.s.add("generate_ms", ms(timed("constraints.generate", func() { sys = constraints.Generate(info, constraints.ContextSensitive) })))
	var sol *constraints.Solution
	rp.s.add("solve_ms", ms(timed("constraints.solve", func() { sol = rp.eng.Strategy().Solve(sys) })))
	rp.s.add("evaluations", float64(evaluations(sys, sol)))
	rp.s.add("solve_alloc_mb", float64(sol.AllocBytes)/1e6)
}

// selfByName is the median self time of each span name: where a
// request's time went, layer by layer.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	byName := samples{}
	for _, s := range spans {
		byName.add(s.Name, ms(self[s.ID]))
	}
	out := map[string]float64{}
	for name := range byName {
		out[name] = byName.q(name, 0.5)
	}
	return out
}

// evaluations is the solver's constraint-evaluation count. The
// worklist and topo solvers count evaluations themselves; the phased
// and monolithic solvers count round-robin passes instead, each of
// which evaluates every constraint of its level once.
func evaluations(sys *constraints.System, sol *constraints.Solution) int64 {
	if sol.Evaluations > 0 {
		return sol.Evaluations
	}
	sl, l1, l2 := sys.Counts()
	return int64(sol.IterSlabels*sl + sol.IterL1*l1 + sol.IterL2*l2)
}

// overhead is the tracing overhead of one request class (an op and,
// where its cost depends on it, the program or size): the median
// latency of its tagged requests minus that of its untagged ones,
// from the same window.
type overhead struct {
	Tagged   int     `json:"tagged"`
	Untagged int     `json:"untagged"`
	TaggedMs float64 `json:"tagged_p50_ms"`
	PlainMs  float64 `json:"untagged_p50_ms"`
	DiffMs   float64 `json:"diff_ms"`
}

// tracingOverhead compares tagged with untagged latency per class.
// Comparing within a class keeps a mix of cheap and costly programs
// that is slightly unbalanced between the halves out of the figure.
func tracingOverhead(outs []*outcome) map[string]overhead {
	tagged, plain := samples{}, samples{}
	for _, o := range outs {
		switch {
		case o.failed():
		case o.tagged():
			tagged.add(o.class, ms(o.lat))
		default:
			plain.add(o.class, ms(o.lat))
		}
	}
	m := map[string]overhead{}
	for class := range tagged {
		if len(plain[class]) == 0 {
			continue
		}
		ov := overhead{Tagged: len(tagged[class]), Untagged: len(plain[class]), TaggedMs: tagged.q(class, 0.5), PlainMs: plain.q(class, 0.5)}
		ov.DiffMs = ov.TaggedMs - ov.PlainMs
		m[class] = ov
	}
	return m
}

// overallOverhead weighs each class's overhead and untagged median by
// its share of the untagged requests.
func overallOverhead(m map[string]overhead) (diff, base float64) {
	var n float64
	for _, ov := range m {
		w := float64(ov.Untagged)
		diff += w * ov.DiffMs
		base += w * ov.PlainMs
		n += w
	}
	return ratio(diff, n), ratio(base, n)
}

// perLayer assembles every per-layer metric; a layer the workload
// does not exercise reads 0.
func perLayer(tw *tracedWindow, in input, ovs map[string]overhead, rp *replayer, spans []span) map[string]metric {
	handler := samples{}
	hop := samples{}
	self := selfTimes(spans)
	linked, nonRoot := 0, 0
	ids := make(map[uint64]uint64, len(spans)) // span → request
	for _, s := range spans {
		ids[s.ID] = s.ReqID
	}
	for _, s := range spans {
		switch {
		case strings.HasPrefix(s.Name, "http.server."):
			handler.add(strings.TrimPrefix(s.Name, "http.server."), ms(s.dur()))
		case strings.HasPrefix(s.Name, "http.fleet."):
			hop.add("hop", ms(self[s.ID]))
		}
		if s.Parent != 0 {
			nonRoot++
			if req, ok := ids[s.Parent]; ok && req == s.ReqID {
				linked++
			}
		}
	}
	counts := daemonDelta(tw.before, tw.after)
	gcPause := float64(tw.gcAfter.PauseTotalNs-tw.gcBefore.PauseTotalNs) / 1e6
	overhead, base := overallOverhead(ovs)
	s := rp.s
	return map[string]metric{
		"fleet.route_key_us_p50":             {s.q("route_key_us", 0.5), "us"},
		"fleet.hop_ms_p50":                   {hop.q("hop", 0.5), "ms"},
		"fleet.retries":                      {counts["fleet.retries"], "count"},
		"server.queue_wait_ms_p50":           {tw.queueP50, "ms"},
		"server.queue_wait_ms_p90":           {tw.queue, "ms"},
		"server.handler_ms_p50.analyze":      {handler.q("analyze", 0.5), "ms"},
		"server.handler_ms_p50.query":        {handler.q("query", 0.5), "ms"},
		"server.handler_ms_p50.delta":        {handler.q("delta", 0.5), "ms"},
		"server.decode_us_p50":               {s.q("decode_us", 0.5), "us"},
		"server.encode_ms_p50":               {s.q("encode_ms", 0.5), "ms"},
		"server.coalesced":                   {counts["server.coalesced"], "count"},
		"server.overload":                    {counts["server.overload"], "count"},
		"frontend.lower_ms_p50":              {s.q("frontend_ms", 0.5), "ms"},
		"condensed.lower_ms_p50":             {s.q("condensed_ms", 0.5), "ms"},
		"parser.parse_ms_p50":                {s.q("parse_ms", 0.5), "ms"},
		"labels.compute_ms_p50":              {s.q("labels_ms", 0.5), "ms"},
		"constraints.generate_ms_p50":        {s.q("generate_ms", 0.5), "ms"},
		"constraints.solve_ms_p50":           {s.q("solve_ms", 0.5), "ms"},
		"constraints.solve_ms_p90":           {s.q("solve_ms", 0.9), "ms"},
		"constraints.evaluations":            {s.mean("evaluations"), "count/solve"},
		"constraints.solve_alloc_mb":         {s.mean("solve_alloc_mb"), "MB/solve"},
		"constraints.delta_methods_resolved": {s.mean("delta_resolved"), "count/delta"},
		"constraints.delta_reevaluated":      {s.mean("delta_reevaluated"), "count/delta"},
		"engine.env_m_ms_p50":                {s.q("env_m_ms", 0.5), "ms"},
		"engine.unstaged_ms_p50":             {s.q("unstaged_ms", 0.5), "ms"},
		"engine.program_hit_rate":            {in.ProgramHitRate, "ratio"},
		"engine.summary_hit_rate":            {in.SummaryHitRate, "ratio"},
		"sumstore.hit_rate":                  {in.StoreHitRate, "ratio"},
		"sumstore.bytes_written":             {float64(in.StoreBytesWritten), "bytes"},
		"mhp.report_ms_p50":                  {s.q("report_ms", 0.5), "ms"},
		"runtime.num_gc":                     {float64(tw.gcAfter.NumGC - tw.gcBefore.NumGC), "count"},
		"runtime.gc_pause_ms_total":          {gcPause, "ms"},
		"trace.overhead_ms_p50":              {overhead, "ms"},
		"trace.overhead_pct":                 {100 * ratio(overhead, base), "%"},
		"trace.spans":                        {float64(len(spans)), "count"},
		"trace.linked_share":                 {ratio(float64(linked), float64(nonRoot)), "ratio"},
		"trace.replayed_requests":            {float64(rp.n), "count"},
	}
}
