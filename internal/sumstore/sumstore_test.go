package sumstore

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"fx10/internal/intset"
	"fx10/internal/types"
)

// randSummary builds a deterministic pseudo-random summary over a
// universe sized by the rng.
func randSummary(rng *rand.Rand) types.Summary {
	n := 1 + rng.Intn(60)
	sum := types.Summary{O: intset.New(n), M: intset.NewPairs(n)}
	for i := 0; i < rng.Intn(n+1); i++ {
		sum.O.Add(rng.Intn(n))
	}
	for i := 0; i < rng.Intn(3*n+1); i++ {
		sum.M.AddSym(rng.Intn(n), rng.Intn(n))
	}
	return sum
}

func keyOf(i int) Key {
	var k Key
	binary.LittleEndian.PutUint64(k[:], uint64(i))
	return k
}

func equalSummaries(a, b types.Summary) bool {
	return a.O.Universe() == b.O.Universe() && a.O.Equal(b.O) && a.M.Equal(b.M)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		want := randSummary(rng)
		got, err := decodeSummary(encodeSummary(want))
		if err != nil {
			t.Fatalf("round trip %d: %v", i, err)
		}
		if !equalSummaries(got, want) {
			t.Fatalf("round trip %d: got O=%v M pairs=%d, want O=%v M pairs=%d",
				i, got.O, got.M.Len(), want.O, want.M.Len())
		}
	}
	// Degenerate but legal: the empty summary over the empty universe.
	empty := types.Summary{O: intset.New(0), M: intset.NewPairs(0)}
	got, err := decodeSummary(encodeSummary(empty))
	if err != nil || got.O.Universe() != 0 {
		t.Fatalf("empty-universe round trip failed: %v", err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":           {},
		"bad version":     {99},
		"truncated":       {payloadVersion, 10, 3, 1},
		"element outside": {payloadVersion, 2, 1, 5, 0},
		"trailing":        append(encodeSummary(types.Summary{O: intset.New(1), M: intset.NewPairs(1)}), 0xFF),
	}
	for name, b := range cases {
		if _, err := decodeSummary(b); err == nil {
			t.Errorf("%s: decode accepted corrupt payload", name)
		}
	}
}

func TestStorePutGetPersist(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(1))
	want := map[int]types.Summary{}

	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		want[i] = randSummary(rng)
		st.Put(keyOf(i), want[i])
	}
	if st.Len() != 50 {
		t.Fatalf("Len = %d, want 50", st.Len())
	}
	// Duplicate puts are deduplicated, not appended.
	before := st.Stats().LogBytes
	st.Put(keyOf(3), want[3])
	if s := st.Stats(); s.LogBytes != before || s.DupPuts != 1 {
		t.Fatalf("duplicate put appended: %+v", s)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: every summary must come back bit-identical, served from
	// the snapshot (no tail scan needed after a clean close).
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if s := st2.Stats(); !s.IndexLoaded || s.RecoveredRecords != 0 {
		t.Errorf("clean reopen should load the snapshot with an empty tail: %+v", s)
	}
	for i, w := range want {
		got, ok := st2.Get(keyOf(i))
		if !ok {
			t.Fatalf("key %d lost across reopen", i)
		}
		if !equalSummaries(got, w) {
			t.Fatalf("key %d decoded differently across reopen", i)
		}
	}
	if _, ok := st2.Get(keyOf(999)); ok {
		t.Error("phantom key present")
	}
}

// TestSnapshotDeterministic: two stores fed the same puts write
// byte-identical logs and index snapshots — the index lists its
// entries in log order, not in map order.
func TestSnapshotDeterministic(t *testing.T) {
	var dirs [2]string
	for d := range dirs {
		dirs[d] = t.TempDir()
		st, err := Open(dirs[d])
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 64; i++ {
			st.Put(keyOf(i*7919%1000), randSummary(rng))
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{logName, indexName} {
		a, errA := os.ReadFile(filepath.Join(dirs[0], name))
		b, errB := os.ReadFile(filepath.Join(dirs[1], name))
		if errA != nil || errB != nil {
			t.Fatalf("read %s: %v, %v", name, errA, errB)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between two stores fed the same puts", name)
		}
	}
}

// TestStoreCrashTruncation is the randomized crash test: kill the
// writer at every interesting offset by truncating the segment log
// mid-record, reopen, and assert the store recovers exactly the
// longest consistent prefix — and that nothing served is corrupt.
func TestStoreCrashTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const records = 30

	// Build a reference store once to learn the record boundaries.
	refDir := t.TempDir()
	st, err := Open(refDir)
	if err != nil {
		t.Fatal(err)
	}
	sums := make([]types.Summary, records)
	bounds := []int64{headerSize}
	for i := range sums {
		sums[i] = randSummary(rng)
		st.Put(keyOf(i), sums[i])
		bounds = append(bounds, st.Stats().LogBytes)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(refDir, logName)
	full, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}

	for trial := 0; trial < 60; trial++ {
		// Cut anywhere in the file, including inside the header.
		cut := int64(rng.Intn(len(full) + 1))
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(dir)
		if err != nil {
			t.Fatalf("cut at %d: open: %v", cut, err)
		}
		// The recovered prefix is the last record boundary ≤ cut.
		wantRecords := 0
		for wantRecords < records && bounds[wantRecords+1] <= cut {
			wantRecords++
		}
		if cut < headerSize {
			wantRecords = 0
		}
		if re.Len() != wantRecords {
			t.Fatalf("cut at %d: recovered %d records, want %d", cut, re.Len(), wantRecords)
		}
		for i := 0; i < wantRecords; i++ {
			got, ok := re.Get(keyOf(i))
			if !ok || !equalSummaries(got, sums[i]) {
				t.Fatalf("cut at %d: record %d corrupt or missing after recovery", cut, i)
			}
		}
		for i := wantRecords; i < records; i++ {
			if _, ok := re.Get(keyOf(i)); ok {
				t.Fatalf("cut at %d: record %d served from beyond the torn tail", cut, i)
			}
		}
		// The store must stay appendable after recovery.
		extra := randSummary(rng)
		re.Put(keyOf(1000+trial), extra)
		if got, ok := re.Get(keyOf(1000 + trial)); !ok || !equalSummaries(got, extra) {
			t.Fatalf("cut at %d: append after recovery failed", cut)
		}
		re.Close()
	}
}

// TestStoreCorruptMidLog flips a byte inside an early record: recovery
// must keep the records before it and drop it plus everything after —
// a consistent prefix, never a corrupt summary.
func TestStoreCorruptMidLog(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(3))
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var sums []types.Summary
	var bounds []int64
	for i := 0; i < 10; i++ {
		sums = append(sums, randSummary(rng))
		st.Put(keyOf(i), sums[i])
		bounds = append(bounds, st.Stats().LogBytes)
	}
	st.Close()
	// Remove the snapshot so recovery must scan (and judge) the log.
	if err := os.Remove(filepath.Join(dir, indexName)); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, logName)
	b, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte inside record 4.
	b[bounds[3]+40] ^= 0xFF
	if err := os.WriteFile(logPath, b, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 4 {
		t.Fatalf("recovered %d records, want the 4 before the corrupt one", re.Len())
	}
	for i := 0; i < 4; i++ {
		got, ok := re.Get(keyOf(i))
		if !ok || !equalSummaries(got, sums[i]) {
			t.Fatalf("record %d corrupt after mid-log recovery", i)
		}
	}
	if s := re.Stats(); s.TruncatedBytes == 0 {
		t.Error("corrupt suffix not reported as truncated")
	}
}

// TestStoreStaleSnapshotReplaysTail: records appended after the last
// snapshot are recovered from the log scan.
func TestStoreStaleSnapshotReplaysTail(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(9))
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var sums []types.Summary
	for i := 0; i < 5; i++ {
		sums = append(sums, randSummary(rng))
		st.Put(keyOf(i), sums[i])
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 12; i++ {
		sums = append(sums, randSummary(rng))
		st.Put(keyOf(i), sums[i])
	}
	// Simulate a crash: no Close, no second snapshot.
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	s := re.Stats()
	if !s.IndexLoaded {
		t.Error("snapshot not used")
	}
	if s.RecoveredRecords != 7 {
		t.Errorf("replayed %d tail records, want 7", s.RecoveredRecords)
	}
	for i, w := range sums {
		if got, ok := re.Get(keyOf(i)); !ok || !equalSummaries(got, w) {
			t.Fatalf("record %d missing or corrupt", i)
		}
	}
}

// TestStoreVersionBumpInvalidates: a log written under a different
// format version is discarded wholesale, not misdecoded.
func TestStoreVersionBumpInvalidates(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.Put(keyOf(1), types.Summary{O: intset.New(3), M: intset.NewPairs(3)})
	st.Close()

	logPath := filepath.Join(dir, logName)
	b, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(b[8:], FormatVersion+1)
	if err := os.WriteFile(logPath, b, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 0 {
		t.Fatalf("future-version log yielded %d records, want a clean reset", re.Len())
	}
	if s := re.Stats(); s.Invalidations != 1 {
		t.Errorf("Invalidations = %d, want 1", s.Invalidations)
	}
	// And the reset store works.
	want := types.Summary{O: intset.Of(3, 1), M: intset.NewPairs(3)}
	re.Put(keyOf(2), want)
	if got, ok := re.Get(keyOf(2)); !ok || !equalSummaries(got, want) {
		t.Error("reset store not writable")
	}
}

// TestStoreConcurrent hammers one store from many goroutines; run
// under -race this is the data-race gate for the engine integration.
func TestStoreConcurrent(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 200; i++ {
				k := keyOf(rng.Intn(64))
				if rng.Intn(2) == 0 {
					st.Put(k, randSummary(rng))
				} else {
					st.Get(k)
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
}
