package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// report is everything one run records beside its result line:
// host and run facts, input properties, per-op latencies and the
// daemon-side counters. It is written to <workdir>/results/.
type report struct {
	Workload        string              `json:"workload"`
	Seed            int64               `json:"seed"`
	HeldOutSeed     int64               `json:"held_out_seed"`
	Seconds         int                 `json:"seconds"`
	Trace           bool                `json:"trace"`
	Host            host                `json:"host"`
	Endpoints       []string            `json:"endpoints"`
	Input           input               `json:"input"`
	Setups          []float64           `json:"setups_s,omitempty"`
	SetupsStopwatch []float64           `json:"setups_stopwatch_s,omitempty"`
	ErrorRate       float64             `json:"error_rate"`
	Exhausted       bool                `json:"window_ended_early"`
	Ops             map[string]opStat   `json:"ops"`
	EndToEnd        map[string]metric   `json:"end_to_end,omitempty"`
	Slices          sliceFacts          `json:"slices"`
	WholeWindow     map[string]float64  `json:"whole_window,omitempty"`
	PerLayer        map[string]metric   `json:"per_layer,omitempty"`
	Overhead        map[string]overhead `json:"trace_overhead,omitempty"`
	Daemon          map[string]float64  `json:"daemon,omitempty"`
	Spans           string              `json:"spans_file,omitempty"`
	SelfMs          map[string]float64  `json:"span_self_ms_p50,omitempty"`
	Failures        []string            `json:"first_failures,omitempty"`
}

// describeFailures lists up to five failed operations.
func describeFailures(outs []*outcome) []string {
	var out []string
	for _, o := range outs {
		if o.failed() && len(out) < 5 {
			out = append(out, fmt.Sprintf("client %d seq %d %s: status %d transport=%v malformed=%v wrong=%v",
				o.client, o.seq, o.op, o.status, o.transport, o.malformed, o.wrong))
		}
	}
	return out
}

type host struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	SourceSum  string `json:"source_digest"`
	Clients    int    `json:"clients"`
	Loop       string `json:"loop"`
}

// hostFacts records the machine and build; run.py passes the commit
// and a digest of the program's sources through the environment.
func hostFacts(clients int) host {
	h := host{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     os.Getenv("PERFBENCH_COMMIT"),
		SourceSum:  os.Getenv("PERFBENCH_SOURCE_DIGEST"),
		Clients:    clients,
		Loop:       "closed",
	}
	if h.Commit == "" {
		h.Commit = "unknown"
	}
	return h
}

// input records the properties that later cache or size claims cite.
type input struct {
	Labels            labelStats `json:"labels"`
	AnalyzeCachedRate float64    `json:"analyze_program_cache_share"`
	ProgramHitRate    float64    `json:"daemon_program_hit_rate"`
	SummaryHitRate    float64    `json:"daemon_summary_hit_rate"`
	SummaryProbes     uint64     `json:"daemon_summary_probes"`
	StoreHitRate      float64    `json:"store_hit_rate"`
	StoreProbes       uint64     `json:"store_probes"`
	StoreBytesWritten uint64     `json:"store_bytes_written"`
}

// sliceFacts says how the window was cut: the time-based end-to-end
// metrics are medians over Count slices of Seconds each, scaled for
// steal (slices.go); whole_window holds the stopwatch figures over the
// window as one slice, and StealShare the window's steal.
type sliceFacts struct {
	Seconds    float64 `json:"seconds"`
	Count      int     `json:"count"`
	StealShare float64 `json:"steal_share"`
}

type opStat struct {
	Count  int     `json:"count"`
	Failed int     `json:"failed"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
}

// opTable is the per-op latency table (query, delta and go latency
// live here: they exist on fleet-hot only).
func opTable(outs []*outcome) map[string]opStat {
	t := map[string]opStat{}
	lat := latencies(outs)
	for _, o := range outs {
		st := t[o.op]
		st.Count++
		if o.failed() {
			st.Failed++
		}
		t[o.op] = st
	}
	for op, st := range t {
		st.P50Ms, st.P90Ms = lat.q(op, 0.5), lat.q(op, 0.9)
		t[op] = st
	}
	return t
}

// cacheDelta is the change of the replicas' cache and store counters
// over the window.
type cacheDelta struct {
	progHits, progMisses, sumHits, sumMisses, storeHits, storeMisses, storeBytes uint64
}

// serverDelta sums over the replicas; the router has no such counters.
func serverDelta(before, after snapshot) cacheDelta {
	var d cacheDelta
	for i := range after.vars {
		b, a := before.vars[i].Daemon, after.vars[i].Daemon
		if a == nil || b == nil {
			continue
		}
		d.progHits += a.Cache.ProgramHits - b.Cache.ProgramHits
		d.progMisses += a.Cache.ProgramMisses - b.Cache.ProgramMisses
		d.sumHits += a.Cache.SummaryHits - b.Cache.SummaryHits
		d.sumMisses += a.Cache.SummaryMisses - b.Cache.SummaryMisses
		d.storeHits += a.Store.Hits - b.Store.Hits
		d.storeMisses += a.Store.Misses - b.Store.Misses
		d.storeBytes += a.Store.BytesWritten
	}
	return d
}

func inputProps(outs []*outcome, d cacheDelta) input {
	var labels []int
	var analyzes, cached int
	for _, o := range outs {
		if o.op != opQuery {
			labels = append(labels, o.labels)
		}
		if o.op == opAnalyze && !o.failed() {
			analyzes++
			if o.cached {
				cached++
			}
		}
	}
	return input{
		Labels:            summarizeLabels(labels),
		AnalyzeCachedRate: ratio(float64(cached), float64(analyzes)),
		ProgramHitRate:    ratio(float64(d.progHits), float64(d.progHits+d.progMisses)),
		SummaryHitRate:    ratio(float64(d.sumHits), float64(d.sumHits+d.sumMisses)),
		SummaryProbes:     d.sumHits + d.sumMisses,
		StoreHitRate:      ratio(float64(d.storeHits), float64(d.storeHits+d.storeMisses)),
		StoreProbes:       d.storeHits + d.storeMisses,
		StoreBytesWritten: d.storeBytes,
	}
}

// daemonDelta reads the window's change of the daemon-side counters
// from /metrics and /debug/vars, summed over processes.
func daemonDelta(before, after snapshot) map[string]float64 {
	m := map[string]float64{}
	for i := range after.vars {
		a, b := after.vars[i], before.vars[i]
		m["runtime.num_gc"] += float64(a.Memstats.NumGC - b.Memstats.NumGC)
		m["runtime.gc_pause_ms_total"] += float64(a.Memstats.PauseTotalNs-b.Memstats.PauseTotalNs) / 1e6
		if a.Daemon != nil && b.Daemon != nil {
			m["server.coalesced"] += float64(a.Daemon.Coalesced - b.Daemon.Coalesced)
			m["server.overload"] += float64(a.Daemon.Overload - b.Daemon.Overload)
		}
		if a.Route != nil && b.Route != nil {
			m["fleet.retries"] += float64(a.Route.Fleet.Failovers - b.Route.Fleet.Failovers)
		}
	}
	return m
}

// writeReport saves the report as JSON under <workdir>/results and
// prints a short human-readable summary.
func writeReport(o options, rep *report, w io.Writer) error {
	dir := filepath.Join(o.workdir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%v.json", o.workload, o.seed, o.trace))
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "perfbench %s seed %d: %d clients (closed loop), nproc %d, %s, commit %s\n",
		rep.Workload, rep.Seed, rep.Host.Clients, rep.Host.Nproc, rep.Host.GoVersion, rep.Host.Commit)
	fmt.Fprintf(w, "  labels: %+v  analyze cache share %.3f  error_rate %.4f\n",
		rep.Input.Labels, rep.Input.AnalyzeCachedRate, rep.ErrorRate)
	for _, op := range sortedKeys(rep.Ops) {
		st := rep.Ops[op]
		fmt.Fprintf(w, "  %-8s n=%-6d failed=%-3d p50 %.3f ms  p90 %.3f ms\n", op, st.Count, st.Failed, st.P50Ms, st.P90Ms)
	}
	for _, table := range []map[string]metric{rep.EndToEnd, rep.PerLayer} {
		for _, k := range sortedKeys(table) {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", k, table[k].Value, table[k].Unit)
		}
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	fmt.Fprintf(w, "  report: %s\n", path)
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
