package engine

import (
	"os"
	"path/filepath"
	"testing"

	"fx10/internal/constraints"
	"fx10/internal/parser"
	"fx10/internal/syntax"
	"fx10/internal/workloads"
)

func chopFile(t *testing.T, path string, n int64) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() <= n {
		t.Fatalf("log too small to chop %d bytes", n)
	}
	if err := os.Truncate(path, fi.Size()-n); err != nil {
		t.Fatal(err)
	}
}

func removeFile(t *testing.T, path string) {
	t.Helper()
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
}

// resultEqual is bitwise equality of the analysis products callers
// consume: the main M set and every method summary.
func resultEqual(a, b *Result) bool {
	if !a.M.Equal(b.M) {
		return false
	}
	return a.Sol.Env().Equal(b.Sol.Env())
}

// TestStoreDoesNotChangeReports: with the disk tier enabled, disabled,
// and warm, every workload's analysis products are bit-identical.
func TestStoreDoesNotChangeReports(t *testing.T) {
	dir := t.TempDir()
	plain := MustNew(Config{CacheSize: 8})
	stored := MustNew(Config{CacheSize: 8, SummaryStorePath: dir})
	defer stored.Close()

	for _, b := range workloads.All() {
		p := b.Program()
		for _, mode := range []constraints.Mode{constraints.ContextSensitive, constraints.ContextInsensitive} {
			want, err := plain.Analyze(Job{Name: b.Name, Program: p, Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			got, err := stored.Analyze(Job{Name: b.Name, Program: p, Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			if !resultEqual(want, got) {
				t.Fatalf("%s (mode %v): store-enabled analysis differs", b.Name, mode)
			}
		}
	}

	// Warm restart: a fresh engine over the populated store must again
	// be bit-identical.
	warm := MustNew(Config{CacheSize: 8, SummaryStorePath: dir})
	defer warm.Close()
	for _, b := range workloads.All() {
		p := b.Program()
		want, err := plain.Analyze(Job{Name: b.Name, Program: p, Mode: constraints.ContextSensitive})
		if err != nil {
			t.Fatal(err)
		}
		got, err := warm.Analyze(Job{Name: b.Name, Program: p, Mode: constraints.ContextSensitive})
		if err != nil {
			t.Fatal(err)
		}
		if !resultEqual(want, got) {
			t.Fatalf("%s: warm-store analysis differs", b.Name)
		}
	}
	if stats, ok := warm.SummaryStoreStats(); !ok || stats.Hits == 0 {
		t.Fatalf("warm engine recorded no store hits: %+v", stats)
	}
}

// TestStoreWarmStartSeedsSecondEngine is the cross-process shape of
// the restart scenario, in-process: engine 1 persists summaries,
// engine 2 (fresh memory tiers, same directory) serves CachedSummary
// from disk with values bit-identical to what solving computes.
func TestStoreWarmStartSeedsSecondEngine(t *testing.T) {
	dir := t.TempDir()
	src := `
void help() {
  L1: finish {
    L2: async { L3: skip; L4: skip; }
  }
  L5: async { L6: skip; }
}
void main() {
  L7: help();
  L8: async { L9: help(); }
}`
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}

	e1 := MustNew(Config{CacheSize: 8, SummaryStorePath: dir})
	res1, err := e1.Analyze(Job{Program: p, Mode: constraints.ContextSensitive})
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	// A second, memory-cold engine: CachedSummary must hit via disk
	// before this engine has analyzed anything.
	e2 := MustNew(Config{CacheSize: 8, SummaryStorePath: dir})
	defer e2.Close()
	p2, err := parser.Parse(src) // distinct Program value, same content
	if err != nil {
		t.Fatal(err)
	}
	hi, _ := p2.MethodIndex("help")
	got, ok := e2.CachedSummary(p2, hi)
	if !ok {
		t.Fatal("second engine missed a summary the first persisted")
	}
	want := res1.Sol.MethodSummary(hi)
	if !got.O.Equal(want.O) || !got.M.Equal(want.M) {
		t.Fatal("disk-tier summary differs from the solved one")
	}
	if cs := e2.CacheStats(); cs.SummaryHits == 0 {
		t.Error("disk-tier hit not counted as a summary hit")
	}
	// And a full analysis on the second engine matches the first's.
	res2, err := e2.Analyze(Job{Program: p2, Mode: constraints.ContextSensitive})
	if err != nil {
		t.Fatal(err)
	}
	if !resultEqual(res1, res2) {
		t.Fatal("store-seeded engine computed a different result")
	}
}

// TestStoreSurvivesCrashMidWrite: truncating the segment log
// mid-record (a simulated crash) must leave a store a fresh engine
// can open and analyze through with bit-identical results.
func TestStoreSurvivesCrashMidWrite(t *testing.T) {
	dir := t.TempDir()
	e1 := MustNew(Config{CacheSize: 8, SummaryStorePath: dir})
	var want []*Result
	for _, b := range workloads.All()[:4] {
		r, err := e1.Analyze(Job{Name: b.Name, Program: b.Program(), Mode: constraints.ContextSensitive})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the log's tail: chop 13 bytes off the end (mid-record) and
	// delete the index snapshot so recovery exercises the scan path.
	log := filepath.Join(dir, "segment.log")
	chopFile(t, log, 13)
	removeFile(t, filepath.Join(dir, "index"))

	e2 := MustNew(Config{CacheSize: 8, SummaryStorePath: dir})
	defer e2.Close()
	if stats, ok := e2.SummaryStoreStats(); !ok || stats.TruncatedBytes == 0 {
		t.Fatalf("torn tail not detected: %+v", stats)
	}
	for i, b := range workloads.All()[:4] {
		got, err := e2.Analyze(Job{Name: b.Name, Program: b.Program(), Mode: constraints.ContextSensitive})
		if err != nil {
			t.Fatal(err)
		}
		if !resultEqual(want[i], got) {
			t.Fatalf("%s: post-crash analysis differs", b.Name)
		}
	}
}

// TestClockedProgramsNeverTouchTheStore: the clocked exclusion carries
// over to disk verbatim — analyzing a clocked program neither reads
// nor writes the disk tier, and the probe counts as skipped.
func TestClockedProgramsNeverTouchTheStore(t *testing.T) {
	dir := t.TempDir()
	e := MustNew(Config{CacheSize: 8, SummaryStorePath: dir})
	defer e.Close()

	src := `
void main() {
  L1: finish {
    L2: clocked async { L3: skip; L4: next; L5: skip; }
    L6: next;
    L7: skip;
  }
}`
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if !p.UsesClocks() {
		t.Fatal("test program should be clocked")
	}
	if _, err := e.Analyze(Job{Program: p, Mode: constraints.ContextSensitive}); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.CachedSummary(p, p.MainIndex); ok {
		t.Error("clocked program served from the summary tier")
	}
	stats, ok := e.SummaryStoreStats()
	if !ok {
		t.Fatal("store not configured")
	}
	if stats.Puts != 0 || stats.Hits != 0 || stats.Misses != 0 {
		t.Errorf("clocked analysis touched the disk tier: %+v", stats)
	}
	if cs := e.CacheStats(); cs.SummarySkipped == 0 {
		t.Error("clocked probe not counted as skipped")
	}
	if cs := e.CacheStats(); cs.SummaryMisses != 0 {
		t.Errorf("clocked probe counted as %d misses", e.CacheStats().SummaryMisses)
	}
}

// TestSummarySkippedDoesNotInflateHitRate: over a mixed corpus the
// skip counter absorbs the clocked probes; hits+misses only reflect
// programs the tier actually serves.
func TestSummarySkippedDoesNotInflateHitRate(t *testing.T) {
	e := MustNew(Config{CacheSize: 8})
	clocked := `
void main() {
  L1: finish {
    L2: clocked async { L3: next; }
    L4: next;
  }
}`
	plain := `
void main() {
  L1: async { L2: skip; }
  L3: skip;
}`
	pc, err := parser.Parse(clocked)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := parser.Parse(plain)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*syntax.Program{pc, pp} {
		if _, err := e.Analyze(Job{Program: p, Mode: constraints.ContextSensitive}); err != nil {
			t.Fatal(err)
		}
	}
	e.CachedSummary(pc, pc.MainIndex) // skipped
	e.CachedSummary(pp, pp.MainIndex) // hit
	cs := e.CacheStats()
	if cs.SummarySkipped != 1 {
		t.Errorf("SummarySkipped = %d, want 1", cs.SummarySkipped)
	}
	if cs.SummaryHits != 1 || cs.SummaryMisses != 0 {
		t.Errorf("hits/misses = %d/%d, want 1/0", cs.SummaryHits, cs.SummaryMisses)
	}
}
