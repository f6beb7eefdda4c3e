package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"fx10/internal/condensed"
	"fx10/internal/engine"
	"fx10/internal/frontend"
	"fx10/internal/mhp"
	"fx10/internal/parser"
	"fx10/internal/syntax"
)

// oracle analyzes sources in-process with the paper's reference
// strategy (phased) and no caches, memoized by source.
type oracle struct {
	eng  *engine.Engine
	mu   sync.Mutex
	memo map[[sha256.Size]byte]*oracleEntry
}

type oracleEntry struct {
	once   sync.Once
	prog   *syntax.Program
	res    *engine.Result
	digest [sha256.Size]byte
	err    error
}

func newOracle() (*oracle, error) {
	eng, err := engine.New(engine.Config{Strategy: "phased", CacheSize: -1})
	if err != nil {
		return nil, err
	}
	return &oracle{eng: eng, memo: map[[sha256.Size]byte]*oracleEntry{}}, nil
}

// lowerSource maps request source to a core program the way the
// daemon does: core FX10 is parsed directly, other languages go
// through their registered front end and the condensed lowering.
func lowerSource(src, lang string) (*syntax.Program, error) {
	lang = strings.ToLower(strings.TrimSpace(lang))
	var p *syntax.Program
	if lang == "" || lang == "fx10" {
		var err error
		if p, err = parser.Parse(src); err != nil {
			return nil, err
		}
	} else {
		f, err := frontend.Lookup(lang)
		if err != nil {
			return nil, err
		}
		u, _, err := f.Lower(src)
		if err != nil {
			return nil, err
		}
		if p, err = condensed.Lower(u); err != nil {
			return nil, err
		}
	}
	return p, syntax.CheckClockUse(p)
}

func (o *oracle) analyze(src, lang string) *oracleEntry {
	key := sha256.Sum256([]byte(lang + "\x00" + src))
	o.mu.Lock()
	e, ok := o.memo[key]
	if !ok {
		e = &oracleEntry{}
		o.memo[key] = e
	}
	o.mu.Unlock()
	e.once.Do(func() {
		e.prog, e.err = lowerSource(src, lang)
		if e.err != nil {
			return
		}
		if e.res, e.err = o.eng.Analyze(engine.Job{Program: e.prog}); e.err != nil {
			return
		}
		var raw []byte
		raw, e.err = json.Marshal(mhp.FromEngine(e.res).Report())
		e.digest = reportDigest(raw)
	})
	return e
}

// forget drops memoized results that will not be asked for again
// (every cold-workload source is distinct), bounding memory.
func (o *oracle) forget(src, lang string) {
	key := sha256.Sum256([]byte(lang + "\x00" + src))
	o.mu.Lock()
	delete(o.memo, key)
	o.mu.Unlock()
}

// verify checks each recorded answer against the oracle: report
// digests for analyze and delta (a delta must equal a from-scratch
// analysis of the edited program), M.Has for query verdicts. reqs are
// the requests the window sent, outs[cl][i] answering reqs[cl][i].
// The checks run on nproc goroutines whatever the client count, since
// they are outside the window. Wrong answers are marked on the
// outcomes; the returned error is for the oracle itself failing.
func verify(c *corpus, o *oracle, workload string, reqs [][]request, w *window) error {
	type job struct{ cl, i int }
	jobs := make(chan job)
	errs := make([]error, runtime.NumCPU())
	var wg sync.WaitGroup
	for k := range errs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for j := range jobs {
				if errs[k] == nil {
					errs[k] = verifyOne(c, o, workload, j.cl, &reqs[j.cl][j.i], &w.outs[j.cl][j.i])
				}
			}
		}(k)
	}
	for cl := range w.outs {
		for i := range w.outs[cl] {
			jobs <- job{cl, i}
		}
	}
	close(jobs)
	wg.Wait()
	return errors.Join(errs...)
}

func verifyOne(c *corpus, o *oracle, workload string, cl int, r *request, out *outcome) error {
	if out.seq != r.Seq || out.op != r.Op {
		return fmt.Errorf("client %d: outcome %d does not match request %d (%s vs %s)", cl, out.seq, r.Seq, out.op, r.Op)
	}
	if out.failed() {
		return nil
	}
	switch r.Op {
	case opQuery:
		pp := c.paper[r.Program]
		e := o.analyze(pp.src, "")
		if e.err != nil {
			return e.err
		}
		la, okA := e.prog.LabelByName(r.A)
		lb, okB := e.prog.LabelByName(r.B)
		out.wrong = !okA || !okB || e.res.M.Has(int(la), int(lb)) != out.mhp
	default:
		e := o.analyze(r.Source, r.Language)
		if e.err != nil {
			return fmt.Errorf("oracle on %s request %d of client %d: %w", r.Op, r.Seq, cl, e.err)
		}
		out.wrong = e.digest != out.digest
		if workload != wFleetHot {
			o.forget(r.Source, r.Language)
		}
	}
	return nil
}
