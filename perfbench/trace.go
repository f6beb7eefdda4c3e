package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fx10/internal/fleet"
	"fx10/internal/server"
)

// span is one timed interval at a layer boundary. Spans of one
// request share ReqID; Parent is the span that caused this one (0 for
// the client span, the root).
type span struct {
	ID     uint64    `json:"id"`
	Parent uint64    `json:"parent"`
	ReqID  uint64    `json:"req"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Request and parent span travel between processes' handlers in
// these headers; the router's forwarding client copies them from the
// request context (traceTransport).
const (
	hdrRequest = "X-Perfbench-Request"
	hdrParent  = "X-Perfbench-Parent"
)

func setTraceHeaders(h http.Header, req, parent uint64) {
	h.Set(hdrRequest, strconv.FormatUint(req, 10))
	h.Set(hdrParent, strconv.FormatUint(parent, 10))
}

type spanRef struct{ req, span uint64 }

type spanKey struct{}

// wrap is the benchmark's timing middleware: one span per benchmark
// request through h, named layer.<endpoint>. Untagged requests (the
// router's health probes) pass through unrecorded.
func (t *tracer) wrap(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseUint(r.Header.Get(hdrRequest), 10, 64)
		if req == 0 {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(hdrParent), 10, 64)
		id := t.newID()
		ctx := context.WithValue(r.Context(), spanKey{}, spanRef{req: req, span: id})
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(ctx))
		t.add(span{ID: id, Parent: parent, ReqID: req, Name: layer + "." + strings.TrimPrefix(r.URL.Path, "/v1/"), Start: start, End: time.Now()})
	})
}

// traceTransport forwards the router span's identity to the backend.
type traceTransport struct{ base http.RoundTripper }

func (tt traceTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ref, ok := r.Context().Value(spanKey{}).(spanRef); ok {
		r = r.Clone(r.Context())
		setTraceHeaders(r.Header, ref.req, ref.span)
	}
	return tt.base.RoundTrip(r)
}

// stack is the workload's topology built in-process from the same
// packages the fx10d binary serves: one server.Server, or for
// fleet-hot a fleet.Router over two servers sharing a summary store.
type stack struct {
	servers []*server.Server
	router  *fleet.Router
	https   []*http.Server
	urls    []string // every handler's base URL, servers first
	entry   string
}

// serve runs h on loopback port, as startTopology runs the daemons.
func serve(h http.Handler, port int) (*http.Server, string, error) {
	ln, err := listenPort(port)
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go func() { _ = hs.Serve(ln) }()
	return hs, "http://" + ln.Addr().String(), nil
}

// startStack builds the in-process topology on the untraced run's
// ports, so the router's ring places programs and sessions the same
// way; with a tracer every handler is wrapped in the timing
// middleware.
func startStack(workload, dir string, tr *tracer) (*stack, error) {
	st := &stack{}
	_, cfg := replicaSetup(workload, filepath.Join(dir, "store"))
	n := 1
	if workload == wFleetHot {
		n = 2
	}
	for i := 0; i < n; i++ {
		srv, err := server.New(cfg)
		if err != nil {
			st.close()
			return nil, err
		}
		st.servers = append(st.servers, srv)
		var h http.Handler = srv.Handler()
		if tr != nil {
			h = tr.wrap("http.server", h)
		}
		hs, url, err := serve(h, basePort+i)
		if err != nil {
			st.close()
			return nil, err
		}
		st.https = append(st.https, hs)
		st.urls = append(st.urls, url)
	}
	st.entry = st.urls[0]
	if workload != wFleetHot {
		return st, nil
	}
	rc := fleet.RouterConfig{Backends: append([]string(nil), st.urls...)}
	if tr != nil {
		rc.Client = &http.Client{Transport: traceTransport{base: http.DefaultTransport}}
	}
	rt, err := fleet.NewRouter(rc)
	if err != nil {
		st.close()
		return nil, err
	}
	st.router = rt
	var h http.Handler = rt.Handler()
	if tr != nil {
		h = tr.wrap("http.fleet", h)
	}
	hs, url, err := serve(h, basePort+n)
	if err != nil {
		st.close()
		return nil, err
	}
	st.https = append(st.https, hs)
	st.urls = append(st.urls, url)
	st.entry = url
	return st, nil
}

func (st *stack) close() {
	for i := len(st.https) - 1; i >= 0; i-- {
		_ = st.https[i].Close()
	}
	if st.router != nil {
		st.router.Close()
	}
	for _, s := range st.servers {
		s.Drain()
		s.Close()
	}
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of it its
// children cover, keyed by span ID.
func selfTimes(spans []span) map[uint64]time.Duration {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}
