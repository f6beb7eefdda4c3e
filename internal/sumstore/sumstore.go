// Package sumstore is the persistent, content-addressed method-summary
// store: the disk tier below the engine's in-memory summary cache
// (internal/engine, summaries.go). It maps a method's content hash —
// which canonicalizes the method's whole call-graph subtree, so equal
// hashes mean equal summaries up to label renumbering — to the
// versioned binary encoding of that method's inferred summary
// E(f) = (M, O) in canonical subtree-local label space. Because the
// key determines the value, the store is append-only and records never
// change: restarts and fleet replicas can share one store soundly.
//
// On-disk layout (one directory):
//
//	segment.log   append-only record log: a 16-byte self-describing
//	              header (magic + format version), then records
//	              [len u32][key 32B][payload][crc32c u32] where the
//	              checksum covers key+payload.
//	index         atomically swapped snapshot of the in-memory index
//	              (key → record location) plus the log prefix length it
//	              covers, so open cost is the snapshot plus a scan of
//	              the un-snapshotted tail, not the whole log.
//
// Crash-safety argument: records are appended with a single write and
// the index snapshot is written to a temp file, fsync'd, and renamed
// over the old one (rename is atomic on POSIX). A crash therefore
// leaves (a) a fully written log, (b) a log with a torn final record,
// or (c) a stale-but-valid index alongside either. Open verifies every
// record checksum from the snapshot's covered offset to EOF and
// truncates the log at the first invalid record, so a torn tail — or
// any corrupt suffix — is discarded and the store recovers to the
// longest consistent prefix. Get re-verifies the record checksum
// before decoding, so a summary that went bad on disk after open is
// detected and served as a miss rather than as corrupt data. A header
// with an unknown magic or version resets the log: format bumps
// invalidate cleanly instead of misdecoding.
//
// The store is a cache, not a system of record: I/O errors after a
// successful Open are counted in Stats and degrade the affected
// operation to a miss or a dropped write instead of failing the
// analysis that triggered it.
package sumstore

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"fx10/internal/types"
)

// Key is a content hash (the engine's syntax.ProgramHash).
type Key = [32]byte

const (
	logName   = "segment.log"
	indexName = "index"

	logMagic   = "FX10SUMS"
	indexMagic = "FX10SUMI"

	// FormatVersion is bumped whenever the record or payload encoding
	// changes; a store written by any other version is discarded on
	// open (the summaries are recomputable).
	FormatVersion = 1

	headerSize = 16 // magic 8 + version u32 + reserved u32

	// recordOverhead is the non-payload bytes per record.
	recordOverhead = 4 + 32 + 4

	// maxPayload bounds one record; anything larger is rejected at Put
	// and treated as corruption when found in a length field on open.
	maxPayload = 64 << 20

	// snapshotEvery is how many appended records trigger a background-
	// free index rewrite on the caller's goroutine; Close always
	// snapshots.
	snapshotEvery = 4096
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// recordLoc locates one record's payload in the log.
type recordLoc struct {
	off int64 // payload offset (record start + 36)
	n   int32 // payload length
}

// Stats is a snapshot of the store's counters. Hits and Misses count
// presence probes (Has and Get); the open/recovery fields describe
// what Open found.
type Stats struct {
	Records  int   `json:"records"`
	LogBytes int64 `json:"logBytes"`

	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Puts    uint64 `json:"puts"`
	DupPuts uint64 `json:"dupPuts"`

	BytesWritten uint64 `json:"bytesWritten"`
	BytesRead    uint64 `json:"bytesRead"`

	// IndexLoaded reports whether Open seeded the index from a valid
	// snapshot; RecoveredRecords counts records replayed from the log
	// tail past the snapshot; TruncatedBytes is the torn or corrupt
	// suffix discarded at open; Invalidations counts whole-log resets
	// (unknown magic or format version).
	IndexLoaded      bool   `json:"indexLoaded"`
	RecoveredRecords int    `json:"recoveredRecords"`
	TruncatedBytes   int64  `json:"truncatedBytes"`
	Invalidations    uint64 `json:"invalidations"`

	WriteErrors uint64 `json:"writeErrors"`
	ReadErrors  uint64 `json:"readErrors"`

	// Shared reports OpenShared mode; ForeignRecords counts records
	// appended by other processes that this store picked up after
	// open, and TailRefreshes counts the shared-lock tail re-scans
	// that found them.
	Shared         bool   `json:"shared"`
	ForeignRecords int    `json:"foreignRecords"`
	TailRefreshes  uint64 `json:"tailRefreshes"`
}

// Store is a disk-backed content-addressed summary store. It is safe
// for concurrent use; opened with OpenShared it is additionally safe
// for concurrent use by multiple processes on one directory.
type Store struct {
	dir    string
	shared bool

	mu     sync.Mutex
	f      *os.File
	size   int64 // log offset this store has scanned up to (== EOF when solo)
	index  map[Key]recordLoc
	broken bool // a failed truncate-after-partial-write poisons appends

	unsnapshotted int // records appended since the last index snapshot

	hits, misses, puts, dupPuts uint64
	bytesWritten, bytesRead     uint64
	writeErrors, readErrors     uint64
	recoveredRecords            int
	foreignRecords              int
	tailRefreshes               uint64
	truncatedBytes              int64
	invalidations               uint64
	indexLoaded                 bool
}

// Open opens (creating if needed) the store rooted at dir, recovering
// the index from the snapshot plus a checksum-verified scan of the
// log tail. A torn or corrupt suffix is truncated; an unknown format
// version resets the store. The store assumes it is the directory's
// only live writer; for a fleet of daemons on one directory use
// OpenShared.
func Open(dir string) (*Store, error) {
	return open(dir, false)
}

// OpenShared opens the store for multi-process sharing: every append
// happens at the verified end of the log under an exclusive flock
// (first reconciling records other processes appended since this
// store last looked), and a read miss re-scans the tail under a
// shared flock before giving up. Content addressing makes this sound
// — identical keys imply identical values, so replicas can only ever
// duplicate work, never disagree — and the locking makes it safe: a
// torn record can only be the leftover of a crashed writer (live
// writers are serialized by the exclusive lock), so truncating it
// under that lock never discards live data. On platforms without
// flock, OpenShared degrades to Open semantics.
func OpenShared(dir string) (*Store, error) {
	return open(dir, true)
}

func open(dir string, shared bool) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sumstore: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sumstore: %w", err)
	}
	s := &Store{dir: dir, f: f, shared: shared, index: make(map[Key]recordLoc)}
	if shared {
		// Recovery may truncate a torn tail, which is only safe with
		// the writers excluded.
		if err := lockExclusive(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("sumstore: lock: %w", err)
		}
		defer unlock(f)
	}
	if err := s.recover(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// recover validates the header, loads the index snapshot, scans the
// uncovered tail, and truncates at the first invalid record.
func (s *Store) recover() error {
	fi, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("sumstore: %w", err)
	}
	logSize := fi.Size()

	reset := func() error {
		if logSize > 0 {
			s.invalidations++
		}
		if err := s.f.Truncate(0); err != nil {
			return fmt.Errorf("sumstore: reset: %w", err)
		}
		var hdr [headerSize]byte
		copy(hdr[:], logMagic)
		binary.LittleEndian.PutUint32(hdr[8:], FormatVersion)
		if _, err := s.f.WriteAt(hdr[:], 0); err != nil {
			return fmt.Errorf("sumstore: write header: %w", err)
		}
		s.size = headerSize
		return nil
	}

	if logSize < headerSize {
		return reset()
	}
	var hdr [headerSize]byte
	if _, err := s.f.ReadAt(hdr[:], 0); err != nil {
		return fmt.Errorf("sumstore: read header: %w", err)
	}
	if string(hdr[:8]) != logMagic || binary.LittleEndian.Uint32(hdr[8:]) != FormatVersion {
		return reset()
	}

	scanFrom := int64(headerSize)
	if covered, idx, ok := s.loadSnapshot(logSize); ok {
		s.index = idx
		s.indexLoaded = true
		scanFrom = covered
	}

	// Replay the tail record by record; stop (and truncate) at the
	// first record that is short, oversized, or checksum-invalid.
	off := scanFrom
	var lenBuf [4]byte
	for off < logSize {
		if off+recordOverhead > logSize {
			break
		}
		if _, err := s.f.ReadAt(lenBuf[:], off); err != nil {
			return fmt.Errorf("sumstore: scan: %w", err)
		}
		n := int64(binary.LittleEndian.Uint32(lenBuf[:]))
		if n > maxPayload || off+recordOverhead+n > logSize {
			break
		}
		rec := make([]byte, 32+n+4)
		if _, err := s.f.ReadAt(rec, off+4); err != nil {
			return fmt.Errorf("sumstore: scan: %w", err)
		}
		sum := binary.LittleEndian.Uint32(rec[32+n:])
		if crc32.Checksum(rec[:32+n], crcTable) != sum {
			break
		}
		var k Key
		copy(k[:], rec[:32])
		s.index[k] = recordLoc{off: off + 36, n: int32(n)}
		s.recoveredRecords++
		off += recordOverhead + n
	}
	if off < logSize {
		s.truncatedBytes = logSize - off
		if err := s.f.Truncate(off); err != nil {
			return fmt.Errorf("sumstore: truncate torn tail: %w", err)
		}
	}
	s.size = off
	return nil
}

// loadSnapshot reads the index file; ok is false (and the snapshot
// ignored) on any structural problem, checksum mismatch, or a covered
// length beyond the current log — recovery then falls back to a full
// log scan.
func (s *Store) loadSnapshot(logSize int64) (covered int64, idx map[Key]recordLoc, ok bool) {
	b, err := os.ReadFile(filepath.Join(s.dir, indexName))
	if err != nil || len(b) < headerSize+16+4 {
		return 0, nil, false
	}
	if string(b[:8]) != indexMagic || binary.LittleEndian.Uint32(b[8:]) != FormatVersion {
		return 0, nil, false
	}
	body := b[headerSize : len(b)-4]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(b[len(b)-4:]) {
		return 0, nil, false
	}
	covered = int64(binary.LittleEndian.Uint64(body[0:8]))
	count := binary.LittleEndian.Uint64(body[8:16])
	if covered < headerSize || covered > logSize {
		return 0, nil, false
	}
	const entrySize = 32 + 8 + 4
	if uint64(len(body)-16) != count*entrySize {
		return 0, nil, false
	}
	idx = make(map[Key]recordLoc, count)
	for i := uint64(0); i < count; i++ {
		e := body[16+i*entrySize:]
		var k Key
		copy(k[:], e[:32])
		loc := recordLoc{
			off: int64(binary.LittleEndian.Uint64(e[32:40])),
			n:   int32(binary.LittleEndian.Uint32(e[40:44])),
		}
		if loc.off < headerSize+36 || loc.off+int64(loc.n)+4 > covered {
			return 0, nil, false
		}
		idx[k] = loc
	}
	return covered, idx, true
}

// scanTailLocked indexes records other processes appended between the
// scanned offset and EOF. The caller must hold the log's advisory
// lock: exclusively (ex true) when the scan may truncate an invalid
// tail, shared otherwise — then the scan just stops short of a torn
// record and leaves it for the next exclusive holder.
func (s *Store) scanTailLocked(ex bool) {
	fi, err := s.f.Stat()
	if err != nil {
		s.readErrors++
		return
	}
	logSize := fi.Size()
	if logSize < s.size {
		// The log shrank below what we indexed: another process reset
		// it (format bump) or rolled back. Drop everything and rescan
		// from the header; stale locations must not survive.
		s.index = make(map[Key]recordLoc)
		s.size = headerSize
		s.invalidations++
		if logSize < headerSize {
			return
		}
	}
	off := s.size
	var lenBuf [4]byte
	for off < logSize {
		if off+recordOverhead > logSize {
			break
		}
		if _, err := s.f.ReadAt(lenBuf[:], off); err != nil {
			s.readErrors++
			return
		}
		n := int64(binary.LittleEndian.Uint32(lenBuf[:]))
		if n > maxPayload || off+recordOverhead+n > logSize {
			break
		}
		rec := make([]byte, 32+n+4)
		if _, err := s.f.ReadAt(rec, off+4); err != nil {
			s.readErrors++
			return
		}
		sum := binary.LittleEndian.Uint32(rec[32+n:])
		if crc32.Checksum(rec[:32+n], crcTable) != sum {
			break
		}
		var k Key
		copy(k[:], rec[:32])
		s.index[k] = recordLoc{off: off + 36, n: int32(n)}
		s.foreignRecords++
		off += recordOverhead + n
	}
	if off < logSize && ex {
		s.truncatedBytes += logSize - off
		if err := s.f.Truncate(off); err != nil {
			s.writeErrors++
			return
		}
	}
	s.size = off
}

// refreshTailLocked is the miss path's tail re-scan: under the shared
// lock, pick up records appended by other replicas. No-op when not
// shared.
func (s *Store) refreshTailLocked() {
	if !s.shared {
		return
	}
	if err := lockShared(s.f); err != nil {
		s.readErrors++
		return
	}
	defer unlock(s.f)
	s.tailRefreshes++
	s.scanTailLocked(false)
}

// Has reports whether the store holds a record for k, counting a hit
// or a miss — this is the probe the engine's warm-start metrics are
// built on. In shared mode a miss first re-scans the log tail for
// records appended by other replicas.
func (s *Store) Has(k Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[k]
	if !ok && s.shared {
		s.refreshTailLocked()
		_, ok = s.index[k]
	}
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	return ok
}

// Get returns the decoded summary for k. The record checksum is
// re-verified before decoding; a record that fails verification is
// dropped from the index and reported as a miss (plus a ReadError).
func (s *Store) Get(k Key) (types.Summary, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	loc, ok := s.index[k]
	if !ok && s.shared {
		s.refreshTailLocked()
		loc, ok = s.index[k]
	}
	if !ok {
		s.misses++
		return types.Summary{}, false
	}
	rec := make([]byte, 32+int64(loc.n)+4)
	if _, err := s.f.ReadAt(rec, loc.off-32); err != nil {
		s.readErrors++
		s.misses++
		return types.Summary{}, false
	}
	s.bytesRead += uint64(len(rec))
	if crc32.Checksum(rec[:32+loc.n], crcTable) != binary.LittleEndian.Uint32(rec[32+loc.n:]) {
		s.readErrors++
		s.misses++
		delete(s.index, k)
		return types.Summary{}, false
	}
	sum, err := decodeSummary(rec[32 : 32+loc.n])
	if err != nil {
		s.readErrors++
		s.misses++
		delete(s.index, k)
		return types.Summary{}, false
	}
	s.hits++
	return sum, true
}

// Put appends the summary for k unless a record for k already exists
// (content addressing: identical keys imply identical values, so the
// first write wins). A failed append rolls the log back to its
// pre-record length so the on-disk prefix stays consistent. In shared
// mode the append happens under the exclusive flock, after
// reconciling the tail other replicas appended — so concurrent
// writers serialize at the verified EOF instead of clobbering each
// other.
func (s *Store) Put(k Key, sum types.Summary) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.broken {
		s.writeErrors++
		return
	}
	if _, ok := s.index[k]; ok {
		s.dupPuts++
		return
	}
	if s.shared {
		if err := lockExclusive(s.f); err != nil {
			s.writeErrors++
			return
		}
		defer unlock(s.f)
		s.scanTailLocked(true)
		if _, ok := s.index[k]; ok {
			s.dupPuts++
			return
		}
	}
	payload := encodeSummary(sum)
	if len(payload) > maxPayload {
		s.writeErrors++
		return
	}
	rec := make([]byte, 0, recordOverhead+len(payload))
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	rec = append(rec, k[:]...)
	rec = append(rec, payload...)
	rec = binary.LittleEndian.AppendUint32(rec, crc32.Checksum(rec[4:], crcTable))
	if _, err := s.f.WriteAt(rec, s.size); err != nil {
		s.writeErrors++
		// Roll back a possibly partial record; if even that fails the
		// in-memory prefix and the file may disagree, so stop writing
		// (reads are still safe: the index only points at verified
		// records).
		if terr := s.f.Truncate(s.size); terr != nil {
			s.broken = true
		}
		return
	}
	s.index[k] = recordLoc{off: s.size + 36, n: int32(len(payload))}
	s.size += int64(len(rec))
	s.puts++
	s.bytesWritten += uint64(len(rec))
	s.unsnapshotted++
	if s.unsnapshotted >= snapshotEvery {
		s.snapshotLocked()
	}
}

// Sync flushes appended records to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Sync()
}

// Snapshot writes the current index atomically (temp file, fsync,
// rename) so the next Open scans only records appended after it.
func (s *Store) Snapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

func (s *Store) snapshotLocked() error {
	body := make([]byte, 0, 16+len(s.index)*(32+8+4))
	body = binary.LittleEndian.AppendUint64(body, uint64(s.size))
	body = binary.LittleEndian.AppendUint64(body, uint64(len(s.index)))
	// Entries in log order, so the same log always snapshots to the
	// same bytes.
	keys := make([]Key, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b Key) int { return cmp.Compare(s.index[a].off, s.index[b].off) })
	for _, k := range keys {
		loc := s.index[k]
		body = append(body, k[:]...)
		body = binary.LittleEndian.AppendUint64(body, uint64(loc.off))
		body = binary.LittleEndian.AppendUint32(body, uint32(loc.n))
	}
	buf := make([]byte, 0, headerSize+len(body)+4)
	var hdr [headerSize]byte
	copy(hdr[:], indexMagic)
	binary.LittleEndian.PutUint32(hdr[8:], FormatVersion)
	buf = append(buf, hdr[:]...)
	buf = append(buf, body...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(body, crcTable))

	// The log must be durable up to the length the snapshot claims to
	// cover before the snapshot becomes visible, or a crash could leave
	// an index pointing past the recovered log.
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("sumstore: snapshot: %w", err)
	}
	tmp := filepath.Join(s.dir, indexName+".tmp")
	final := filepath.Join(s.dir, indexName)
	tf, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("sumstore: snapshot: %w", err)
	}
	if _, err := tf.Write(buf); err != nil {
		tf.Close()
		return fmt.Errorf("sumstore: snapshot: %w", err)
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		return fmt.Errorf("sumstore: snapshot: %w", err)
	}
	if err := tf.Close(); err != nil {
		return fmt.Errorf("sumstore: snapshot: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("sumstore: snapshot: %w", err)
	}
	if d, err := os.Open(s.dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	s.unsnapshotted = 0
	return nil
}

// Close syncs the log, snapshots the index, and closes the file.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.f == nil {
		s.mu.Unlock()
		return nil
	}
	snapErr := s.snapshotLocked()
	f := s.f
	s.f = nil
	s.mu.Unlock()
	closeErr := f.Close()
	if snapErr != nil {
		return snapErr
	}
	return closeErr
}

// Len is the number of stored summaries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Records:          len(s.index),
		LogBytes:         s.size,
		Hits:             s.hits,
		Misses:           s.misses,
		Puts:             s.puts,
		DupPuts:          s.dupPuts,
		BytesWritten:     s.bytesWritten,
		BytesRead:        s.bytesRead,
		IndexLoaded:      s.indexLoaded,
		RecoveredRecords: s.recoveredRecords,
		TruncatedBytes:   s.truncatedBytes,
		Invalidations:    s.invalidations,
		WriteErrors:      s.writeErrors,
		ReadErrors:       s.readErrors,
		Shared:           s.shared,
		ForeignRecords:   s.foreignRecords,
		TailRefreshes:    s.tailRefreshes,
	}
}
