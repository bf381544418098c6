// Package store persists the serving state of graphviews: per-shard
// checkpoint part files committed by a manifest (manifest.go, parts.go),
// serialized view extensions (extensions.go) and a write-ahead log of
// edge updates (this file), combined by Store (store.go) into an
// open → recover → append → checkpoint lifecycle with
// torn-tail-tolerant crash recovery.
//
// The WAL is a flat file of length-prefixed, CRC32C-framed records:
//
//	[payload length u32 LE][crc32c(payload) u32 LE][payload]
//
// where a payload is one update operation — a unit insert (opAdd), a
// unit delete (opDel) or a batch (opBatch) of flagged (from,to) pairs.
// Appends happen before the serving layer acknowledges a write;
// durability of an acknowledged append is governed by the sync policy
// (per-record fsync, group-commit interval, or none). Recovery decodes
// records from the start and truncates the file at the first bad frame
// — a torn tail from a crash mid-write loses only the unsynced suffix,
// never the log.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"graphviews/internal/graph"
	"graphviews/internal/view"
)

// Record payload op codes.
const (
	opAdd   = 1 // unit edge insert: from u32, to u32
	opDel   = 2 // unit edge delete: from u32, to u32
	opBatch = 3 // batch: count u32, then count × (flags u8, from u32, to u32)
)

// frameHeaderLen is the length prefix plus the CRC32C of the payload.
const frameHeaderLen = 8

// maxRecordBytes caps a single record payload. A batch is bounded by
// the serving layer's request body limit (1 MiB of text lines), so any
// length prefix beyond this is corruption, not data — the decoder
// treats it as a bad frame and truncates.
const maxRecordBytes = 1 << 24

// castagnoli is the CRC32C polynomial table (hardware-accelerated on
// amd64/arm64), the same checksum family used by ext4 and RocksDB WALs.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SyncMode selects when an appended record is forced to stable storage.
type SyncMode uint8

const (
	// SyncAlways fsyncs after every appended record before Append
	// returns: an acknowledged write survives any crash.
	SyncAlways SyncMode = iota
	// SyncNone never fsyncs explicitly; the OS flushes on its own
	// schedule. A crash may lose acknowledged-but-unsynced records (the
	// log still recovers to a consistent prefix).
	SyncNone
	// SyncInterval group-commits: a background flusher fsyncs the log
	// every Interval when records are pending, bounding the loss window
	// of a crash to one interval.
	SyncInterval
)

// SyncPolicy is a SyncMode plus the group-commit period for
// SyncInterval.
type SyncPolicy struct {
	// Mode selects the fsync discipline.
	Mode SyncMode
	// Interval is the group-commit period (SyncInterval only).
	Interval time.Duration
}

// ParseSyncPolicy parses the -wal-sync flag syntax: "always", "none",
// or a positive duration like "50ms" selecting group commit on that
// interval. The empty string means always (the safe default).
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "always":
		return SyncPolicy{Mode: SyncAlways}, nil
	case "none":
		return SyncPolicy{Mode: SyncNone}, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return SyncPolicy{}, fmt.Errorf("store: bad sync policy %q (want always, none, or a positive interval like 50ms)", s)
	}
	return SyncPolicy{Mode: SyncInterval, Interval: d}, nil
}

// String renders the policy in ParseSyncPolicy syntax.
func (p SyncPolicy) String() string {
	switch p.Mode {
	case SyncNone:
		return "none"
	case SyncInterval:
		return p.Interval.String()
	default:
		return "always"
	}
}

// WALStats counts what the log did, cumulatively since open. All fields
// are atomics: the serving layer's metrics endpoint reads them while
// writers append.
type WALStats struct {
	// AppendedRecords counts records (frames) appended.
	AppendedRecords atomic.Int64
	// AppendedBytes counts framed bytes appended.
	AppendedBytes atomic.Int64
	// AppendErrors counts failed appends (write or fsync errors). A
	// failed append is rolled back from the log, so an error reported to
	// the caller never leaves a half-acknowledged record behind.
	AppendErrors atomic.Int64
	// Fsyncs counts explicit fsyncs of the log file.
	Fsyncs atomic.Int64
	// FsyncNs is the cumulative fsync wall time in nanoseconds.
	FsyncNs atomic.Int64
	// TruncatedTails counts recoveries that found and cut a bad tail.
	TruncatedTails atomic.Int64
	// TruncatedBytes counts the bytes those truncations discarded.
	TruncatedBytes atomic.Int64
}

// WAL is an append-only write-ahead log of edge-update records. Append
// and Sync are safe for concurrent use; the serving layer additionally
// serializes appends with its write mutex so log order equals apply
// order.
type WAL struct {
	policy SyncPolicy
	stats  WALStats

	mu      sync.Mutex
	f       *os.File            // guarded by mu
	size    int64               // guarded by mu; bytes of valid log
	dirty   bool                // guarded by mu; bytes written since last fsync
	failed  bool                // guarded by mu; a rollback failed, log integrity unknown
	syncErr error               // guarded by mu; sticky group-commit fsync failure (see flusher)
	syncFn  func() error        // guarded by mu; fsync implementation, nil = f.Sync (test seam)
	closed  bool                // guarded by mu
	observe func(time.Duration) // guarded by mu; per-fsync latency hook
	buf     []byte              // guarded by mu; frame scratch

	done chan struct{}
	wg   sync.WaitGroup
}

// errWALFailed marks a log whose post-error rollback failed: the file
// may end in a half frame, so no further appends are accepted (recovery
// at next open will truncate the bad tail).
var errWALFailed = errors.New("store: WAL failed; reopen to recover")

// OpenWAL opens (creating if absent) the log at path, decodes every
// intact record, truncates the file at the first bad frame, and returns
// the log positioned for appending plus the decoded record batches in
// append order. A torn or corrupted tail is expected after a crash —
// it is counted in Stats, not an error.
func OpenWAL(path string, policy SyncPolicy) (*WAL, [][]view.EdgeUpdate, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	w := &WAL{policy: policy, f: f, done: make(chan struct{})}
	batches, good := DecodeAll(data)
	if good < int64(len(data)) {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("store: truncating bad WAL tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, err
		}
		w.stats.TruncatedTails.Add(1)
		w.stats.TruncatedBytes.Add(int64(len(data)) - good)
	}
	if _, err := f.Seek(good, 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	w.size = good
	if policy.Mode == SyncInterval {
		w.wg.Add(1)
		go w.flusher()
	}
	return w, batches, nil
}

// DecodeAll decodes the longest valid record prefix of a WAL image: the
// batches of every intact frame in order, and the byte length of that
// prefix. Anything after goodLen — a torn frame from a crash mid-write,
// a corrupted length or checksum, an unknown op — is a bad tail the
// caller should truncate. DecodeAll never fails and never panics; on
// arbitrary input it simply returns a shorter prefix.
func DecodeAll(data []byte) (batches [][]view.EdgeUpdate, goodLen int64) {
	off := int64(0)
	for int64(len(data))-off >= frameHeaderLen {
		plen := int64(binary.LittleEndian.Uint32(data[off:]))
		if plen == 0 || plen > maxRecordBytes || int64(len(data))-off-frameHeaderLen < plen {
			break
		}
		payload := data[off+frameHeaderLen : off+frameHeaderLen+plen]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[off+4:]) {
			break
		}
		batch, err := decodePayload(payload)
		if err != nil {
			break
		}
		batches = append(batches, batch)
		off += frameHeaderLen + plen
	}
	return batches, off
}

// decodePayload decodes one record payload into its update batch.
func decodePayload(p []byte) ([]view.EdgeUpdate, error) {
	if len(p) == 0 {
		return nil, errors.New("store: empty record payload")
	}
	switch op := p[0]; op {
	case opAdd, opDel:
		if len(p) != 9 {
			return nil, fmt.Errorf("store: unit record payload is %d bytes, want 9", len(p))
		}
		return []view.EdgeUpdate{{
			From:   graph.NodeID(binary.LittleEndian.Uint32(p[1:])),
			To:     graph.NodeID(binary.LittleEndian.Uint32(p[5:])),
			Delete: op == opDel,
		}}, nil
	case opBatch:
		if len(p) < 5 {
			return nil, errors.New("store: truncated batch record header")
		}
		count := binary.LittleEndian.Uint32(p[1:])
		if int64(len(p)) != 5+int64(count)*9 {
			return nil, fmt.Errorf("store: batch record of %d updates is %d bytes, want %d", count, len(p), 5+int64(count)*9)
		}
		batch := make([]view.EdgeUpdate, count)
		off := 5
		for i := range batch {
			flags := p[off]
			if flags > 1 {
				return nil, fmt.Errorf("store: unknown update flags %#x", flags)
			}
			batch[i] = view.EdgeUpdate{
				From:   graph.NodeID(binary.LittleEndian.Uint32(p[off+1:])),
				To:     graph.NodeID(binary.LittleEndian.Uint32(p[off+5:])),
				Delete: flags == 1,
			}
			off += 9
		}
		return batch, nil
	default:
		return nil, fmt.Errorf("store: unknown record op %d", op)
	}
}

// encodeRecord appends the framed record for batch to dst. A
// single-update batch uses the compact unit ops; larger batches the
// counted batch op.
func encodeRecord(dst []byte, batch []view.EdgeUpdate) []byte {
	var payload []byte
	if len(batch) == 1 {
		up := batch[0]
		op := byte(opAdd)
		if up.Delete {
			op = opDel
		}
		payload = append(make([]byte, 0, 9), op)
		payload = binary.LittleEndian.AppendUint32(payload, uint32(up.From))
		payload = binary.LittleEndian.AppendUint32(payload, uint32(up.To))
	} else {
		payload = append(make([]byte, 0, 5+9*len(batch)), opBatch)
		payload = binary.LittleEndian.AppendUint32(payload, uint32(len(batch)))
		for _, up := range batch {
			flags := byte(0)
			if up.Delete {
				flags = 1
			}
			payload = append(payload, flags)
			payload = binary.LittleEndian.AppendUint32(payload, uint32(up.From))
			payload = binary.LittleEndian.AppendUint32(payload, uint32(up.To))
		}
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// Append frames batch as one record, writes it to the log and — under
// SyncAlways — fsyncs before returning. On any error the record is
// rolled back (the file truncated to its pre-append length), so an
// Append that returns an error guarantees the record is not in the
// durable log; if even the rollback fails, the WAL is marked failed and
// every later Append errors until the file is reopened.
func (w *WAL) Append(batch []view.EdgeUpdate) error {
	if len(batch) == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		w.stats.AppendErrors.Add(1)
		return errors.New("store: WAL closed")
	}
	if w.failed {
		w.stats.AppendErrors.Add(1)
		return errWALFailed
	}
	if w.syncErr != nil {
		// A group-commit fsync failed in the background: records acked
		// since the previous successful fsync may never have reached disk,
		// and after a failed fsync the kernel may have dropped the dirty
		// pages — a later fsync succeeding proves nothing. Refuse further
		// appends (the serving layer returns 503 wal_append_failed) until
		// a checkpoint makes the log's content irrelevant (Reset).
		w.stats.AppendErrors.Add(1)
		return fmt.Errorf("store: WAL group-commit fsync failed: %w", w.syncErr)
	}
	w.buf = encodeRecord(w.buf[:0], batch)
	if _, err := w.f.Write(w.buf); err != nil {
		w.rollbackLocked()
		return fmt.Errorf("store: WAL append: %w", err)
	}
	w.size += int64(len(w.buf))
	if w.policy.Mode == SyncAlways {
		if err := w.fsyncLocked(); err != nil {
			w.size -= int64(len(w.buf))
			w.rollbackLocked()
			return fmt.Errorf("store: WAL fsync: %w", err)
		}
	} else {
		w.dirty = true
	}
	w.stats.AppendedRecords.Add(1)
	w.stats.AppendedBytes.Add(int64(len(w.buf)))
	return nil
}

// rollbackLocked cuts the file back to the last acknowledged length
// after a failed append; if the cut itself fails the log is marked
// failed. Caller holds w.mu and counts the append error.
//
//gvcheck:holds mu the *Locked-helper idiom: Append holds w.mu
func (w *WAL) rollbackLocked() {
	w.stats.AppendErrors.Add(1)
	if err := w.f.Truncate(w.size); err != nil {
		w.failed = true
		return
	}
	if _, err := w.f.Seek(w.size, 0); err != nil {
		w.failed = true
	}
}

// fsyncLocked syncs the file, timing the call into the stats and the
// observer hook. Caller holds w.mu.
//
//gvcheck:holds mu the *Locked-helper idiom: Append/Sync/flusher hold w.mu
func (w *WAL) fsyncLocked() error {
	start := time.Now()
	sync := w.syncFn
	if sync == nil {
		sync = w.f.Sync
	}
	err := sync()
	d := time.Since(start)
	w.stats.Fsyncs.Add(1)
	w.stats.FsyncNs.Add(int64(d))
	if w.observe != nil {
		w.observe(d)
	}
	w.dirty = false
	return err
}

// flusher is the group-commit goroutine of SyncInterval: it fsyncs the
// log every interval while unsynced records are pending.
func (w *WAL) flusher() {
	defer w.wg.Done()
	t := time.NewTicker(w.policy.Interval)
	defer t.Stop()
	for {
		select {
		case <-w.done:
			return
		case <-t.C:
			w.mu.Lock()
			if w.dirty && !w.closed && !w.failed && w.syncErr == nil {
				if err := w.fsyncLocked(); err != nil {
					// Sticky: the next Append (and Close) must surface this —
					// acked records may be lost, so silently acking more
					// unlogged updates would break the durability contract.
					w.syncErr = err
				}
			}
			w.mu.Unlock()
		}
	}
}

// Sync forces an fsync of the log, regardless of policy.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("store: WAL closed")
	}
	return w.fsyncLocked()
}

// Reset truncates the log to empty — checkpoint compaction: every
// logged record is covered by the snapshot just checkpointed, so the
// log restarts from zero. The truncation is fsynced.
func (w *WAL) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("store: WAL closed")
	}
	if err := w.f.Truncate(0); err != nil {
		w.failed = true
		return err
	}
	if _, err := w.f.Seek(0, 0); err != nil {
		w.failed = true
		return err
	}
	w.size = 0
	w.failed = false
	// A sticky background fsync error is cleared too: the checkpoint
	// that triggered this Reset covers every logged record, so whether
	// the failed fsync lost any of them no longer matters.
	w.syncErr = nil
	return w.fsyncLocked()
}

// Size reports the current valid log length in bytes.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Stats exposes the log's counters (live atomics, safe to read
// concurrently with appends).
func (w *WAL) Stats() *WALStats { return &w.stats }

// SetObserver registers fn to run after every fsync with its latency
// (the serving layer's fsync histogram). Pass nil to remove.
func (w *WAL) SetObserver(fn func(time.Duration)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.observe = fn
}

// Close stops the group-commit flusher, fsyncs any pending bytes and
// closes the file. Appends after Close fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	err := w.syncErr
	if w.dirty && !w.failed && err == nil {
		err = w.fsyncLocked()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.mu.Unlock()
	close(w.done)
	w.wg.Wait()
	return err
}
