package main

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"

	"fx10/internal/condensed"
	"fx10/internal/gofront"
	"fx10/internal/progen"
	"fx10/internal/server"
	"fx10/internal/syntax"
	"fx10/internal/workloads"
	"fx10/internal/x10"
)

// Workload names. BENCHMARK.json lists paper13-cold and fleet-hot;
// huge-cold runs by name only, as the check on the progen huge tier
// that the ROADMAP asks of every speedup (README.md, "Workloads").
const (
	wPaper13Cold = "paper13-cold"
	wHugeCold    = "huge-cold"
	wFleetHot    = "fleet-hot"
)

var workloadNames = []string{wPaper13Cold, wHugeCold, wFleetHot}

// Operation kinds. opGo is an /v1/analyze of Go source; it is kept
// apart from opAnalyze only for the input-property accounting.
const (
	opAnalyze = "analyze"
	opQuery   = "query"
	opDelta   = "delta"
	opGo      = "go"
)

// request is one generated operation. Source, Language, Program, A
// and B are kept for the correctness check; Body is what is sent.
type request struct {
	Client, Seq int
	Op          string
	Path        string
	Body        []byte

	Source   string
	Language string
	Program  int // paper-program index of a query (fleet-hot)
	A, B     string
	Labels   int    // label count of the analyzed program (0 for queries)
	Class    string // what the request's cost depends on: its op and program or size
}

// paperProg is one of the paper's 13 benchmarks, prepared once.
type paperProg struct {
	name   string
	x10    string          // x10.Render of the condensed unit
	x10Lab int             // label count once one empty method is added
	prog   *syntax.Program // lowered core program
	src    string          // syntax.Print(prog)
	hash   string          // hex Program.Hash of src as the daemon parses it
	labels []string        // label display names, for queries
}

// corpus holds what every stream shares.
type corpus struct {
	paper []*paperProg
}

func loadCorpus() (*corpus, error) {
	c := &corpus{}
	for _, b := range workloads.All() {
		p := b.Program()
		pp := &paperProg{name: b.Name, x10: x10.Render(b.Unit()), prog: p, src: syntax.Print(p)}
		withOne := withEmptyMethod(b.Unit(), "perfbench_probe")
		low, err := condensed.Lower(withOne)
		if err != nil {
			return nil, fmt.Errorf("lower %s: %w", b.Name, err)
		}
		pp.x10Lab = low.NumLabels()
		h := p.Hash()
		pp.hash = hex.EncodeToString(h[:])
		for l := range p.Labels {
			pp.labels = append(pp.labels, p.Labels[l].Name)
		}
		c.paper = append(c.paper, pp)
	}
	return c, nil
}

// withEmptyMethod returns u with one never-called empty method
// appended: the program's MHP shape is unchanged but its content
// hash is new, so the daemon's program cache misses.
func withEmptyMethod(u *condensed.Unit, name string) *condensed.Unit {
	methods := append(append([]*condensed.MethodDecl(nil), u.Methods...), &condensed.MethodDecl{Name: name})
	return &condensed.Unit{Methods: methods}
}

// emptyMethodX10 is what x10.Render appends for withEmptyMethod's
// extra method. paper13-cold appends it to the unit's rendering, so a
// request costs a string concatenation rather than a full render
// (TestEmptyMethodSuffix checks the equivalence).
func emptyMethodX10(name string) string { return "\ndef " + name + "() {\n}\n" }

// deltaRoots are the paper programs the fleet-hot delta sessions are
// rooted at, by client index. The root is fixed per client so that
// delta cost does not depend on the seed; the seed picks the edits.
var deltaRoots = []string{"raytracer", "moldyn", "linpack", "montecarlo", "sparsemm", "crypt", "sor", "series"}

// hugeSizes are the huge-cold label targets, drawn equally.
var hugeSizes = []int{1000, 2000, 4000}

// hugeCacheEntries bounds the daemon's program cache on huge-cold,
// the one flag the benchmark changes from its default. A cold
// workload never hits that cache; at the default 128 entries it would
// retain about 28 MB per request (a solved 1k–4k-label program) for
// the whole run, so peak_rss_mb would measure run length and could
// exhaust the host.
const hugeCacheEntries = 16

// replicaSetup is how a workload's analysis daemons are configured:
// fx10d flags for the real binary and the same settings as a
// server.Config for the in-process stack. store is the summary-store
// directory (fleet-hot only).
func replicaSetup(workload, store string) ([]string, server.Config) {
	switch workload {
	case wHugeCold:
		return []string{"-cache", strconv.Itoa(hugeCacheEntries)}, server.Config{CacheSize: hugeCacheEntries}
	case wFleetHot:
		return []string{"-summary-store", store, "-summary-store-shared"},
			server.Config{SummaryStorePath: store, SummaryStoreShared: true}
	}
	return nil, server.Config{}
}

// fleetOps is one block of the fleet-hot mix: query=8, analyze=3,
// delta=1, go=1. Each block is shuffled, so every op keeps its exact
// share in every run.
var fleetOps = []string{
	opQuery, opQuery, opQuery, opQuery, opQuery, opQuery, opQuery, opQuery,
	opAnalyze, opAnalyze, opAnalyze, opDelta, opGo,
}

// stream is one client's deterministic request sequence: request k of
// client c depends only on (workload, seed, c, k).
type stream struct {
	workload string
	seed     int64
	client   int
	c        *corpus
	rng      *rand.Rand
	seq      int
	root     *paperProg
	// One shuffled block per choice: the program or size of a cold
	// request, and on fleet-hot the op, the queried and the analyzed
	// program, and the edited method.
	pick, op, queried, analyzed, edited block
}

// block deals the indices 0..n-1 in shuffled rounds, so that each of
// the n choices occurs exactly once per round.
type block struct {
	n    int
	left []int
}

func (b *block) next(rng *rand.Rand) int {
	if len(b.left) == 0 {
		b.left = rng.Perm(b.n)
	}
	i := b.left[0]
	b.left = b.left[1:]
	return i
}

func newStream(c *corpus, workload string, seed int64, client int) *stream {
	s := &stream{
		workload: workload,
		seed:     seed,
		client:   client,
		c:        c,
		rng:      rand.New(rand.NewSource(seed*7919 + int64(client)*104729 + int64(len(workload)))),
	}
	switch workload {
	case wPaper13Cold:
		s.pick.n = len(c.paper)
	case wHugeCold:
		s.pick.n = len(hugeSizes)
	case wFleetHot:
		s.root = c.byName(deltaRoots[client%len(deltaRoots)])
		s.op.n, s.queried.n, s.analyzed.n = len(fleetOps), len(c.paper), len(c.paper)
		s.edited.n = len(s.root.prog.Methods)
	}
	return s
}

func (c *corpus) byName(name string) *paperProg {
	for _, p := range c.paper {
		if p.name == name {
			return p
		}
	}
	panic("perfbench: unknown paper program " + name)
}

func (s *stream) next() (request, error) {
	r := request{Client: s.client, Seq: s.seq}
	s.seq++
	switch s.workload {
	case wPaper13Cold:
		pp := s.c.paper[s.pick.next(s.rng)]
		name := fmt.Sprintf("perfbench_s%d_c%d_r%d", s.seed, s.client, r.Seq)
		r.Op, r.Language, r.Labels, r.Class = opAnalyze, "x10", pp.x10Lab, opAnalyze+"/"+pp.name
		r.Source = pp.x10 + emptyMethodX10(name)
	case wHugeCold:
		size := hugeSizes[s.pick.next(s.rng)]
		p := progen.GenerateHuge(s.rng.Int63(), progen.Huge(size))
		r.Op, r.Source, r.Labels, r.Class = opAnalyze, syntax.Print(p), p.NumLabels(), opAnalyze+"/"+strconv.Itoa(size)
	case wFleetHot:
		switch fleetOps[s.op.next(s.rng)] {
		case opQuery:
			t := s.queried.next(s.rng)
			pp := s.c.paper[t]
			r.Op, r.Program, r.Class = opQuery, t, opQuery
			r.A = pp.labels[s.rng.Intn(len(pp.labels))]
			r.B = pp.labels[s.rng.Intn(len(pp.labels))]
		case opAnalyze:
			pp := s.c.paper[s.analyzed.next(s.rng)]
			r.Op, r.Source, r.Labels, r.Class = opAnalyze, pp.src, pp.prog.NumLabels(), opAnalyze+"/"+pp.name
		case opDelta:
			// Every edit mutates one method of the session's base
			// program, never the previous edit, so delta cost does not
			// grow with run length.
			mi := s.edited.next(s.rng)
			edited := progen.MutateMethod(s.root.prog, mi, s.rng.Int63())
			r.Op, r.Source, r.Labels, r.Class = opDelta, syntax.Print(edited), edited.NumLabels(), opDelta
		case opGo:
			src, labels, err := goSource(s.rng)
			if err != nil {
				return r, err
			}
			r.Op, r.Language, r.Source, r.Labels, r.Class = opGo, "go", src, labels, opGo
		}
	default:
		return r, fmt.Errorf("unknown workload %q", s.workload)
	}
	return r, r.encode(s.c)
}

// perClientRate caps the requests generated per client and measured
// second at about three times the rate one client reached on the
// reference host (2 vCPUs): 70/s on paper13-cold, 4/s on huge-cold,
// 300/s on fleet-hot. Only a large speedup makes a client run out, and
// then the window ends early (window.exhausted) with the same work.
var perClientRate = map[string]int{wPaper13Cold: 200, wHugeCold: 12, wFleetHot: 900}

// generate returns each client's first requests, perClientRate for
// every started second of dur. Streams are generated before the
// window, one goroutine per client, so the load generator's own work
// is not part of what is measured.
func generate(c *corpus, workload string, seed int64, clients int, dur time.Duration) ([][]request, error) {
	n := int(math.Ceil(dur.Seconds())) * perClientRate[workload]
	reqs := make([][]request, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for cl := range reqs {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			s := newStream(c, workload, seed, cl)
			reqs[cl] = make([]request, n)
			for i := range reqs[cl] {
				if reqs[cl][i], errs[cl] = s.next(); errs[cl] != nil {
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	return reqs, errors.Join(errs...)
}

// goSource renders a fresh small progen.Finite program as Go.
func goSource(rng *rand.Rand) (string, int, error) {
	for tries := 0; tries < 16; tries++ {
		p := progen.Generate(rng.Int63(), progen.Finite())
		u, err := condensed.FromProgram(p)
		if err != nil {
			continue
		}
		src, err := gofront.Render(u)
		if err != nil {
			continue
		}
		return src, p.NumLabels(), nil
	}
	return "", 0, fmt.Errorf("no renderable Go program after 16 tries")
}

// sessionID names client c's delta session.
func sessionID(client int) string { return "perfbench-" + strconv.Itoa(client) }

// encode fills Path and Body.
func (r *request) encode(c *corpus) error {
	var v any
	switch r.Op {
	case opAnalyze, opGo:
		r.Path = "/v1/analyze"
		v = server.AnalyzeRequest{Source: r.Source, Language: r.Language}
	case opQuery:
		r.Path = "/v1/query"
		v = server.QueryRequest{ProgramHash: c.paper[r.Program].hash, A: r.A, B: r.B}
	case opDelta:
		r.Path = "/v1/delta"
		v = server.DeltaRequest{Session: sessionID(r.Client), Source: r.Source}
	}
	body, err := json.Marshal(v)
	r.Body = body
	return err
}

// warmups returns the requests sent before the timed window, in
// order. Their inputs never occur in the timed streams, except on
// fleet-hot, where warming the caches is the point.
func warmups(c *corpus, workload string, seed int64, clients int) ([]request, error) {
	var out []request
	add := func(op, src, lang string, labels int, client int) error {
		r := request{Client: client, Seq: -1 - len(out), Op: op, Source: src, Language: lang, Labels: labels}
		if err := r.encode(c); err != nil {
			return err
		}
		out = append(out, r)
		return nil
	}
	switch workload {
	case wPaper13Cold:
		for i, pp := range c.paper {
			name := fmt.Sprintf("perfbench_warm_s%d_%d", seed, i)
			if err := add(opAnalyze, pp.x10+emptyMethodX10(name), "x10", pp.x10Lab, 0); err != nil {
				return nil, err
			}
		}
	case wHugeCold:
		rng := rand.New(rand.NewSource(-seed - 1))
		for _, size := range hugeSizes {
			p := progen.GenerateHuge(rng.Int63(), progen.Huge(size))
			if err := add(opAnalyze, syntax.Print(p), "", p.NumLabels(), 0); err != nil {
				return nil, err
			}
		}
	case wFleetHot:
		for _, pp := range c.paper {
			if err := add(opAnalyze, pp.src, "", pp.prog.NumLabels(), 0); err != nil {
				return nil, err
			}
		}
		// Each client's first delta is its session's full analyze; it
		// belongs to warm-up so that timed deltas are all incremental.
		for cl := 0; cl < clients; cl++ {
			root := c.byName(deltaRoots[cl%len(deltaRoots)])
			if err := add(opDelta, root.src, "", root.prog.NumLabels(), cl); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return out, nil
}

// labelStats summarizes the label-count distribution of the analyzed
// programs (an input property recorded with every result).
type labelStats struct {
	Count int `json:"programs"`
	Min   int `json:"min"`
	P50   int `json:"p50"`
	P90   int `json:"p90"`
	Max   int `json:"max"`
}

func summarizeLabels(ls []int) labelStats {
	if len(ls) == 0 {
		return labelStats{}
	}
	s := append([]int(nil), ls...)
	sort.Ints(s)
	at := func(q float64) int { return s[rankIndex(len(s), q)] }
	return labelStats{Count: len(s), Min: s[0], P50: at(0.5), P90: at(0.9), Max: s[len(s)-1]}
}
