package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is what the benchmark keeps of one operation during the
// window: timings, status and a digest of the answer, never the
// answer itself.
type outcome struct {
	client, seq int
	op, class   string
	labels      int
	reqID       uint64 // tagged requests of traced runs only
	spanID      uint64 // the client span, tagged requests only
	status      int
	transport   bool // no HTTP response at all
	malformed   bool // 2xx whose body did not decode
	wrong       bool // set by verify
	lat         time.Duration
	end         time.Time // when the reply (or the error) arrived
	digest      [sha256.Size]byte
	mhp         bool
	cached      bool
}

func (o *outcome) failed() bool {
	return o.transport || o.malformed || o.wrong || o.status/100 != 2
}

func (o *outcome) tagged() bool { return o.reqID != 0 }

// window is one closed-loop run: per-client outcomes in sequence
// order, from the first send to the last completion. exhausted says
// a client used up its generated requests before the deadline, which
// ended the window early for every client.
type window struct {
	start, end time.Time
	outs       [][]outcome
	exhausted  bool
}

func (w *window) all() []*outcome {
	var out []*outcome
	for _, c := range w.outs {
		for i := range c {
			out = append(out, &c[i])
		}
	}
	return out
}

// driver sends requests to one base URL; with a tracer it tags every
// other timed request with an ID and records a client span around it.
type driver struct {
	base   string
	client *http.Client
	tr     *tracer
}

func newDriver(base string, clients int, tr *tracer) *driver {
	return &driver{
		base: base,
		tr:   tr,
		client: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        4 * clients,
				MaxIdleConnsPerHost: 2 * clients,
				IdleConnTimeout:     90 * time.Second,
				DisableCompression:  true,
			},
		},
	}
}

func (d *driver) close() { d.client.CloseIdleConnections() }

// do sends r and digests the response; a tagged request carries the
// trace headers and gets a client span.
func (d *driver) do(ctx context.Context, r *request, tagged bool) outcome {
	o := outcome{client: r.Client, seq: r.Seq, op: r.Op, class: r.Class, labels: r.Labels}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+r.Path, bytes.NewReader(r.Body))
	if err != nil {
		o.transport, o.end = true, time.Now()
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	if tagged {
		o.reqID, o.spanID = d.tr.newID(), d.tr.newID()
		setTraceHeaders(req.Header, o.reqID, o.spanID)
	}
	t0 := time.Now()
	resp, err := d.client.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		o.status = resp.StatusCode
	}
	t1 := time.Now()
	o.lat, o.end = t1.Sub(t0), t1
	if tagged {
		d.tr.add(span{ID: o.spanID, ReqID: o.reqID, Name: "client." + r.Op, Start: t0, End: t1})
	}
	if err != nil {
		o.transport = true
		return o
	}
	if o.status/100 == 2 {
		o.malformed = digestResponse(r.Op, body, &o) != nil
	}
	return o
}

// digestResponse keeps the query verdict, or a digest of the compact
// report JSON, which the oracle reproduces from its own report.
func digestResponse(op string, body []byte, o *outcome) error {
	if op == opQuery {
		var q struct {
			MHP *bool `json:"mhp"`
		}
		if err := json.Unmarshal(body, &q); err != nil {
			return err
		}
		if q.MHP == nil {
			return fmt.Errorf("query response without verdict")
		}
		o.mhp = *q.MHP
		return nil
	}
	var a struct {
		Cached bool            `json:"cached"`
		Report json.RawMessage `json:"report"`
	}
	if err := json.Unmarshal(body, &a); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, a.Report); err != nil {
		return err
	}
	o.digest = reportDigest(buf.Bytes())
	o.cached = a.Cached
	return nil
}

// reportDigest hashes a compact report without its "iterations"
// member. Solver pass counts are cost, not MHP content: they
// legitimately differ between a delta solve and a from-scratch one,
// and between strategies, and the repository's own report comparisons
// mask them the same way. Every other byte must match.
func reportDigest(compact []byte) [sha256.Size]byte {
	key := []byte(`"iterations":{`)
	i := bytes.Index(compact, key)
	if i < 0 {
		return sha256.Sum256(compact)
	}
	j := bytes.IndexByte(compact[i:], '}')
	if j < 0 {
		return sha256.Sum256(compact)
	}
	start, end := i, i+j+1
	if start > 0 && compact[start-1] == ',' {
		start--
	} else if end < len(compact) && compact[end] == ',' {
		end++
	}
	h := sha256.New()
	h.Write(compact[:start])
	h.Write(compact[end:])
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// warm sends reqs one at a time, untagged, and requires every one to
// succeed.
func (d *driver) warm(ctx context.Context, reqs []request) error {
	for i := range reqs {
		o := d.do(ctx, &reqs[i], false)
		if o.failed() {
			return fmt.Errorf("warm-up %s %d: status %d transport=%v", reqs[i].Op, i, o.status, o.transport)
		}
	}
	return nil
}

// run drives one closed-loop client per stream of reqs for dur: each
// sends its next request only when the previous reply has arrived.
// The window ends at the deadline, or as soon as one client has sent
// all its requests. With a tracer, requests of even sequence number
// are tagged and the others are not, so the two halves of one window
// give the tracing overhead. Every workload's choices are dealt in
// blocks of odd size (13 or 3), so a choice alternates between the
// halves from one block to the next and both halves see the same mix.
func (d *driver) run(ctx context.Context, reqs [][]request, dur time.Duration) *window {
	w := &window{outs: make([][]outcome, len(reqs))}
	var stop atomic.Bool
	var wg sync.WaitGroup
	w.start = time.Now()
	deadline := w.start.Add(dur)
	ends := make([]time.Time, len(reqs))
	for cl := range reqs {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for i := range reqs[cl] {
				if !time.Now().Before(deadline) || ctx.Err() != nil || stop.Load() {
					break
				}
				r := &reqs[cl][i]
				w.outs[cl] = append(w.outs[cl], d.do(ctx, r, d.tr != nil && r.Seq%2 == 0))
			}
			if len(w.outs[cl]) == len(reqs[cl]) {
				stop.Store(true)
			}
			ends[cl] = time.Now()
		}(cl)
	}
	wg.Wait()
	w.exhausted = stop.Load()
	w.end = w.start
	for _, e := range ends {
		if e.After(w.end) {
			w.end = e
		}
	}
	return w
}
