package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running fx10d process (a replica or the router).
type daemon struct {
	role   string // "replica" or "router"
	url    string
	cmd    *exec.Cmd
	log    *os.File
	exited chan error // receives the Wait result once
	once   sync.Once
}

// basePort is where the loopback ports start: replica i listens on
// basePort+i, and on fleet-hot the router on basePort+2, in the
// untraced and the traced run alike. The router's consistent-hash ring
// is keyed by replica URL, so fixed ports give every run the same
// assignment of programs and sessions to replicas; other ports would
// move load between replicas from run to run. A run whose port is
// taken fails rather than fall back to another.
const basePort = 47310

func listenPort(port int) (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(port))
	if err != nil {
		return nil, fmt.Errorf("the benchmark needs loopback ports %d-%d free: %w", basePort, basePort+2, err)
	}
	return ln, nil
}

// startDaemon runs bin with args plus an -addr on loopback port and
// waits until its /healthz answers 200.
func startDaemon(bin, role, logPath string, port int, args []string) (*daemon, error) {
	ln, err := listenPort(port)
	if err != nil {
		return nil, err
	}
	if err := ln.Close(); err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	argv := append(append([]string(nil), args...), "-addr", addr)
	cmd := exec.Command(bin, argv...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Dir = filepath.Dir(logPath)
	cmd.Env = append(os.Environ(), "TMPDIR="+filepath.Dir(logPath))
	// Take the daemon down with the benchmark if it dies unexpectedly.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", role, err)
	}
	d := &daemon{role: role, url: "http://" + addr, cmd: cmd, log: logf, exited: make(chan error, 1)}
	go func() { d.exited <- cmd.Wait() }()
	if err := d.waitReady(30 * time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *daemon) waitReady(limit time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case err := <-d.exited:
			d.exited <- err
			return fmt.Errorf("%s exited before becoming ready: %v (see %s)", d.role, err, d.log.Name())
		default:
		}
		resp, err := client.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready after %v", d.role, limit)
}

// stop asks the daemon to drain with SIGTERM and waits for it to exit,
// killing it if it takes longer than ten seconds.
func (d *daemon) stop() {
	d.once.Do(func() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(10 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.exited
		}
		d.log.Close()
	})
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// cpuTicks returns the process's user+system CPU time from
// /proc/<pid>/stat, in clock ticks (USER_HZ, 100 per second on Linux).
func cpuTicks(pid int) (int64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after ')'.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return ut + st, nil
}

const ticksPerSecond = 100

// vmHWM returns the process's peak resident set size in bytes.
func vmHWM(pid int) (int64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseInt(f[0], 10, 64)
			return kb * 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// debugVars is the part of /debug/vars the benchmark reads.
type debugVars struct {
	Memstats struct {
		TotalAlloc   uint64 `json:"TotalAlloc"`
		NumGC        uint32 `json:"NumGC"`
		PauseTotalNs uint64 `json:"PauseTotalNs"`
	} `json:"memstats"`
	Route  *routeVars  `json:"fx10route"`
	Daemon *serverVars `json:"fx10d"`
}

// routeVars is the part of the router's /metrics the benchmark reads.
type routeVars struct {
	Fleet struct {
		Failovers int64 `json:"failovers"`
	} `json:"fleet"`
}

// serverVars is the part of a daemon's /metrics the benchmark reads.
type serverVars struct {
	Coalesced int64 `json:"coalesced"`
	Overload  int64 `json:"overload"`
	Cache     struct {
		ProgramHits   uint64 `json:"programHits"`
		ProgramMisses uint64 `json:"programMisses"`
		SummaryHits   uint64 `json:"summaryHits"`
		SummaryMisses uint64 `json:"summaryMisses"`
	} `json:"cache"`
	Store struct {
		Hits         uint64 `json:"hits"`
		Misses       uint64 `json:"misses"`
		BytesWritten uint64 `json:"bytesWritten"`
	} `json:"summaryStore"`
}

func getJSON(ctx context.Context, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// snapshot is the per-process state read before and after the window,
// and the VM's CPU accounting.
type snapshot struct {
	ticks []int64
	vars  []debugVars
	host  hostCPU
}

func takeSnapshot(ctx context.Context, procs []*daemon) (snapshot, error) {
	var s snapshot
	var err error
	if s.host, err = readHostCPU(); err != nil {
		return s, err
	}
	for _, d := range procs {
		t, err := cpuTicks(d.pid())
		if err != nil {
			return s, err
		}
		var v debugVars
		if err := getJSON(ctx, d.url+"/debug/vars", &v); err != nil {
			return s, err
		}
		s.ticks = append(s.ticks, t)
		s.vars = append(s.vars, v)
	}
	return s, nil
}

// topology is the set of processes one workload runs against.
type topology struct {
	procs []*daemon
	entry string // base URL clients send to
}

// urls lists every process's base URL, replicas first.
func (t *topology) urls() []string {
	var out []string
	for _, d := range t.procs {
		out = append(out, d.url)
	}
	return out
}

func (t *topology) stop() {
	// Router first, so it never probes a replica that is going away.
	for i := len(t.procs) - 1; i >= 0; i-- {
		t.procs[i].stop()
	}
}

// startTopology starts the workload's daemons with the flags of
// replicaSetup: one fx10d for the cold workloads; for fleet-hot two
// replicas sharing one summary store behind `fx10d route`.
func startTopology(bin, dir, workload string) (*topology, error) {
	t := &topology{}
	flags, _ := replicaSetup(workload, filepath.Join(dir, "store"))
	n := 1
	if workload == wFleetHot {
		n = 2
	}
	var urls []string
	for i := 0; i < n; i++ {
		d, err := startDaemon(bin, "replica", filepath.Join(dir, fmt.Sprintf("fx10d-%d.log", i)), basePort+i, flags)
		if err != nil {
			t.stop()
			return nil, err
		}
		t.procs = append(t.procs, d)
		urls = append(urls, d.url)
	}
	t.entry = urls[0]
	if n == 1 {
		return t, nil
	}
	r, err := startDaemon(bin, "router", filepath.Join(dir, "route.log"), basePort+n,
		[]string{"route", "-backends", strings.Join(urls, ",")})
	if err != nil {
		t.stop()
		return nil, err
	}
	t.procs = append(t.procs, r)
	t.entry = r.url
	return t, nil
}
