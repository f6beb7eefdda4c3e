// Command perfbench is the fx10d service benchmark: it drives the real
// fx10d daemon (and, for fleet-hot, `fx10d route` in front of two
// replicas) over loopback HTTP with one closed-loop client, checks
// every answer against the in-process reference analysis, and prints
// the end-to-end metrics; with -trace 1 it instead replays the same
// requests in-process under the benchmark's own timing middleware and
// prints the per-layer metrics. See README.md for the workloads and
// the prediction table.
//
// Usage (normally through run.py, which builds the binaries):
//
//	perfbench -fx10d BIN -workdir DIR -workload NAME -seed N -seconds S -trace 0|1
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// heldOutSeed is never used while tuning the benchmark or a change:
// a claimed gain must also hold on it.
const heldOutSeed = 9001

// setups is how many times an untraced run sets its topology up;
// setup_s is their median.
const setups = 5

// defaultClients is one closed-loop client, a single caller waiting
// for each reply. With nproc (2) clients on a 2-vCPU shared host every
// request also waited on the other one: on fleet-hot four processes
// shared two vCPUs, on huge-cold two solves shared the memory
// bandwidth, and the metrics followed the host's other load about
// twice as much as with one client (README.md, "Load").
const defaultClients = 1

type options struct {
	fx10d    string
	workdir  string
	workload string
	seed     int64
	seconds  int
	trace    bool
	clients  int
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseOptions(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.fx10d, "fx10d", "", "path of the fx10d binary under test")
	fs.StringVar(&o.workdir, "workdir", "", "directory for logs, stores, spans and reports")
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 replays in-process with spans and reports per-layer metrics")
	fs.IntVar(&o.clients, "clients", defaultClients, "closed-loop clients (at most nproc)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.trace = trace == 1
	switch {
	case o.fx10d == "" && !o.trace:
		return o, errors.New("-fx10d is required")
	case o.workdir == "":
		return o, errors.New("-workdir is required")
	case !known(o.workload):
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
	case o.seconds < 1:
		return o, errors.New("-seconds must be at least 1")
	case trace != 0 && trace != 1:
		return o, errors.New("-trace must be 0 or 1")
	case o.clients < 1 || o.clients > runtime.NumCPU():
		return o, fmt.Errorf("-clients %d: must be between 1 and nproc (%d)", o.clients, runtime.NumCPU())
	}
	return o, nil
}

func known(w string) bool {
	for _, n := range workloadNames {
		if n == w {
			return true
		}
	}
	return false
}

func run(args []string, stdout io.Writer) error {
	o, err := parseOptions(args)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	runDir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return err
	}
	c, err := loadCorpus()
	if err != nil {
		return err
	}
	rep := &report{
		Workload:    o.workload,
		Seed:        o.seed,
		HeldOutSeed: heldOutSeed,
		Seconds:     o.seconds,
		Trace:       o.trace,
		Host:        hostFacts(o.clients),
	}
	var res result
	if o.trace {
		res, err = runTraced(ctx, o, c, runDir, rep)
	} else {
		res, err = runUntraced(ctx, o, c, runDir, rep)
	}
	if err != nil {
		return fmt.Errorf("%w (logs in %s)", err, runDir)
	}
	if err := writeReport(o, rep, stdout); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed or answered wrongly (logs in %s)", res.Failed, res.Attempted, runDir)
	}
	return os.RemoveAll(runDir)
}

// runUntraced is the end-to-end run against the real binaries.
func runUntraced(ctx context.Context, o options, c *corpus, dir string, rep *report) (result, error) {
	warm, err := warmups(c, o.workload, o.seed, o.clients)
	if err != nil {
		return result{}, err
	}
	dur := time.Duration(o.seconds) * time.Second
	reqs, err := generate(c, o.workload, o.seed, o.clients, dur)
	if err != nil {
		return result{}, err
	}
	// Set up several times and keep the last topology for the window;
	// setup_s is the median, from process start through readiness and
	// warm-up, scaled for steal like the window's figures (slices.go).
	var topo *topology
	var d *driver
	for k := 0; k < setups; k++ {
		sdir := filepath.Join(dir, fmt.Sprintf("setup-%d", k))
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			return result{}, err
		}
		h0, err := readHostCPU()
		if err != nil {
			return result{}, err
		}
		t0 := time.Now()
		topo, err = startTopology(o.fx10d, sdir, o.workload)
		if err != nil {
			return result{}, err
		}
		d = newDriver(topo.entry, o.clients, nil)
		if err := d.warm(ctx, warm); err != nil {
			topo.stop()
			return result{}, err
		}
		secs := time.Since(t0).Seconds()
		h1, err := readHostCPU()
		if err != nil {
			topo.stop()
			return result{}, err
		}
		rep.SetupsStopwatch = append(rep.SetupsStopwatch, secs)
		rep.Setups = append(rep.Setups, secs*(1-stealShare(h0, h1)))
		if k < setups-1 {
			d.close()
			topo.stop()
		}
	}
	defer topo.stop()
	defer d.close()
	rep.Endpoints = topo.urls()

	// Slice bounds are sampled alongside the window (see slices.go).
	step := time.Duration(sliceSeconds[o.workload]) * time.Second
	steps := 0
	if step > 0 && dur >= 3*step {
		steps = int(dur / step)
	}
	before, err := takeSnapshot(ctx, topo.procs)
	if err != nil {
		return result{}, err
	}
	var bounds []tickSample
	var boundsErr error
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		if steps > 0 {
			bounds, boundsErr = sampleTicks(ctx, topo.procs, step, steps)
		}
	}()
	win := d.run(ctx, reqs, dur)
	<-sampled
	if boundsErr != nil {
		return result{}, boundsErr
	}
	after, err := takeSnapshot(ctx, topo.procs)
	if err != nil {
		return result{}, err
	}
	var peak int64
	hwms := map[string]float64{}
	for i, p := range topo.procs {
		hwm, err := vmHWM(p.pid())
		if err != nil {
			return result{}, err
		}
		peak = max(peak, hwm)
		hwms[fmt.Sprintf("vmhwm_mb.%s-%d", p.role, i)] = float64(hwm) / 1e6
	}
	d.close()
	topo.stop()

	orc, err := newOracle()
	if err != nil {
		return result{}, err
	}
	if err := verify(c, orc, o.workload, reqs, win); err != nil {
		return result{}, err
	}

	outs := win.all()
	failed := countFailed(outs)
	var ticks int64
	var allocBytes float64
	for i := range topo.procs {
		ticks += after.ticks[i] - before.ticks[i]
		allocBytes += float64(after.vars[i].Memstats.TotalAlloc - before.vars[i].Memstats.TotalAlloc)
	}
	n := float64(len(outs))
	whole := wholeWindow(outs, win, ticks, stealShare(before.host, after.host))
	slices := []*slice{whole}
	if steps > 0 {
		if sl := cut(outs, bounds, win.end); len(sl) > 0 {
			slices = sl
		}
	}
	tm := sliceMedians(slices)
	e2e := map[string]metric{
		"throughput_rps":   {tm["throughput_rps"], "1/s"},
		"analyze_ms_p50":   {tm["analyze_ms_p50"], "ms"},
		"analyze_ms_p90":   {tm["analyze_ms_p90"], "ms"},
		"cpu_ms_per_req":   {tm["cpu_ms_per_req"], "ms"},
		"alloc_mb_per_req": {allocBytes / 1e6 / n, "MB"},
		"peak_rss_mb":      {float64(peak) / 1e6, "MB"},
		"setup_s":          {median(rep.Setups), "s"},
	}
	rep.Slices = sliceFacts{Seconds: step.Seconds(), Count: len(slices), StealShare: whole.steal}
	if len(slices) == 1 {
		rep.Slices.Seconds = whole.secs
	}
	rep.WholeWindow = timeMetrics(whole, true)
	rep.EndToEnd = e2e
	rep.Ops = opTable(outs)
	rep.ErrorRate = ratio(float64(failed), n)
	rep.Failures = describeFailures(outs)
	rep.Exhausted = win.exhausted
	rep.Input = inputProps(outs, serverDelta(before, after))
	rep.Daemon = daemonDelta(before, after)
	for k, v := range hwms {
		rep.Daemon[k] = v
	}
	return result{Correct: failed == 0, Attempted: len(outs), Failed: failed, Metrics: e2e}, nil
}

func countFailed(outs []*outcome) int {
	n := 0
	for _, o := range outs {
		if o.failed() {
			n++
		}
	}
	return n
}

// latencies groups successful latencies in ms by op. fleet-hot's Go
// analyses are an op of their own although they use /v1/analyze: each
// is a fresh program whose new method summaries are appended to the
// shared store and fsync'd before the reply, so their latency follows
// the host's disk. Mixed into analyze, where they sit just below the
// median, they would move analyze_ms_p50 with the disk rather than the
// program.
func latencies(outs []*outcome) samples {
	s := samples{}
	for _, o := range outs {
		if !o.failed() {
			s.add(o.op, ms(o.lat))
		}
	}
	return s
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
