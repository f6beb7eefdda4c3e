package main

import (
	"context"
	"errors"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The untraced window is cut into equal slices of time, and each
// time-based end-to-end metric (throughput, analyze latency, CPU per
// request) is the median of its per-slice values.
//
// The host runs other VMs on the same cores. /proc/stat counts as
// steal the time a vCPU wanted to run while the hypervisor ran
// something else; on the reference host it was 7% of one run and 34%
// of the next, and throughput and latency followed it. That time is
// no property of fx10d, so throughput and latency are scaled to the
// vCPU time the VM had: a slice in which a share s of the wanted time
// was stolen counts (1-s) of its length, and its latencies count
// (1-s) of what the stopwatch read. CPU per request needs no scaling:
// stolen time is not charged to a process. The median over slices
// then keeps what remains of an episode shorter than half the window
// (on-the-host slowdowns that steal does not count, such as a busy
// sibling hyperthread) out of the figure. The per-run record keeps
// the stopwatch figures (whole_window) and the steal share.

// sliceSeconds is the slice length per workload, chosen so that a
// slice holds over a hundred analyze replies. A workload not listed
// (huge-cold, a few replies a second), or a window shorter than three
// slices, is measured as one slice.
var sliceSeconds = map[string]int{wPaper13Cold: 2, wFleetHot: 2}

// tickSample is the daemons' summed CPU ticks and the VM's CPU
// accounting at one instant.
type tickSample struct {
	at    time.Time
	ticks int64
	host  hostCPU
}

// hostCPU is the VM's CPU time from the first line of /proc/stat, in
// ticks: time spent running anything, and steal.
type hostCPU struct{ busy, steal int64 }

func readHostCPU() (hostCPU, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, errors.New("malformed /proc/stat")
	}
	// user nice system idle iowait irq softirq steal
	var v [8]int64
	for i := range v {
		if v[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return hostCPU{}, err
		}
	}
	return hostCPU{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}, nil
}

// stealShare is the share of the time the vCPUs wanted to run between
// a and b that the hypervisor gave to others.
func stealShare(a, b hostCPU) float64 {
	busy, steal := b.busy-a.busy, b.steal-a.steal
	if busy+steal <= 0 {
		return 0
	}
	return float64(steal) / float64(busy+steal)
}

// sampleTicks reads the daemons' CPU ticks now and after each of n
// further steps; the samples bound the slices.
func sampleTicks(ctx context.Context, procs []*daemon, step time.Duration, n int) ([]tickSample, error) {
	var out []tickSample
	start := time.Now()
	for k := 0; k <= n; k++ {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(time.Until(start.Add(time.Duration(k) * step))):
		}
		var sum int64
		for _, d := range procs {
			t, err := cpuTicks(d.pid())
			if err != nil {
				return nil, err
			}
			sum += t
		}
		h, err := readHostCPU()
		if err != nil {
			return nil, err
		}
		out = append(out, tickSample{time.Now(), sum, h})
	}
	return out, nil
}

// slice is one stretch of the window: the operations that completed
// in it and the CPU the daemons used meanwhile.
type slice struct {
	secs  float64
	ops   int // completed, failed ones included
	ok    int
	ticks int64
	steal float64 // stealShare over the slice
	lat   samples // successful latencies in ms, by op
}

// cut assigns every outcome to the slice its reply arrived in;
// outcomes outside [bounds[0], bounds[last]) belong to none. Slices
// that end after the window (which ends early when a client runs out
// of requests) are dropped.
func cut(outs []*outcome, bounds []tickSample, end time.Time) []*slice {
	n := 0
	for n+1 < len(bounds) && !bounds[n+1].at.After(end) {
		n++
	}
	bounds = bounds[:n+1]
	sl := make([]*slice, n)
	for i := range sl {
		sl[i] = &slice{
			secs:  bounds[i+1].at.Sub(bounds[i].at).Seconds(),
			ticks: bounds[i+1].ticks - bounds[i].ticks,
			steal: stealShare(bounds[i].host, bounds[i+1].host),
			lat:   samples{},
		}
	}
	for _, o := range outs {
		i := sort.Search(len(bounds), func(i int) bool { return bounds[i].at.After(o.end) }) - 1
		if i < 0 || i >= len(sl) {
			continue
		}
		s := sl[i]
		s.ops++
		if !o.failed() {
			s.ok++
			s.lat.add(o.op, ms(o.lat))
		}
	}
	return sl
}

// wholeWindow is the window as one slice.
func wholeWindow(outs []*outcome, w *window, ticks int64, steal float64) *slice {
	s := &slice{secs: w.end.Sub(w.start).Seconds(), ops: len(outs), ticks: ticks, steal: steal, lat: latencies(outs)}
	s.ok = len(outs) - countFailed(outs)
	return s
}

// timeMetrics are the time-based end-to-end metrics of one slice, with
// throughput and latency scaled to the vCPU time the VM had unless
// stopwatch is set; a figure the slice has no sample for is left out.
func timeMetrics(s *slice, stopwatch bool) map[string]float64 {
	had := 1 - s.steal
	if stopwatch || had <= 0 {
		had = 1
	}
	m := map[string]float64{"throughput_rps": float64(s.ok) / (s.secs * had)}
	if s.ops > 0 {
		m["cpu_ms_per_req"] = float64(s.ticks) * 1000 / ticksPerSecond / float64(s.ops)
	}
	if len(s.lat[opAnalyze]) > 0 {
		m["analyze_ms_p50"] = s.lat.q(opAnalyze, 0.5) * had
		m["analyze_ms_p90"] = s.lat.q(opAnalyze, 0.9) * had
	}
	return m
}

// sliceMedians is, for each time-based metric, the median of its
// per-slice values.
func sliceMedians(sl []*slice) map[string]float64 {
	vals := map[string][]float64{}
	for _, s := range sl {
		for k, v := range timeMetrics(s, false) {
			vals[k] = append(vals[k], v)
		}
	}
	out := map[string]float64{}
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}
