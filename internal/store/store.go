package store

// Store is the durable graph + view store behind a serving process: a
// data directory holding one checkpoint (a MANIFEST plus immutable part
// files, manifest.go) and one write-ahead log (wal.log). The lifecycle
// is
//
//	Open        — load the committed manifest, collect any garbage a
//	              crashed checkpoint left behind, scan the WAL,
//	              truncate any torn tail, and hand back the base graph,
//	              its serialized view extensions and the tail of update
//	              batches to replay;
//	Append      — log an update batch before the serving layer
//	              acknowledges it (durability per SyncPolicy), marking
//	              the batch's shards dirty;
//	Checkpoint  — write the dirty shards (plus the extensions) as fresh
//	              part files, commit them with an atomic manifest
//	              rename, and compact the WAL to empty. Clean shards
//	              are carried over by reference — a checkpoint after a
//	              small write burst rewrites only the touched shards.
//
// Crash safety of the checkpoint protocol: part files are written and
// fsynced first under never-reused names, so until the manifest rename
// commits they are invisible garbage — a crash before the rename
// leaves the old manifest + full WAL (recovery replays everything and
// the next Open removes the orphans). A crash between the rename and
// the WAL reset leaves the new manifest + a WAL whose records are
// already reflected in it. Replaying that WAL is harmless: update
// operations are absolute (add or delete an edge, not a toggle), so
// re-applying any suffix of the log to a state that already contains
// it is a no-op on the graph — and maintenance ignores updates that do
// not change the graph. Every protocol step that removes or renames a
// directory entry is followed by a directory fsync, so no step can be
// undone by a later crash.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphviews/internal/graph"
	"graphviews/internal/view"
)

// Data-directory layout. current.snap is the retired single-file
// snapshot format (GVSNAP01): never read or written, collected once a
// manifest exists, and refused by Open without one (see Open).
const (
	snapName = "current.snap"
	walName  = "wal.log"
)

// Options parameterizes Open. The zero value syncs every appended
// record (SyncAlways) and reads part files into memory.
type Options struct {
	// Sync is the WAL durability policy for acknowledged appends.
	Sync SyncPolicy
	// Mmap maps part files read-only and adopts their integer columns
	// in place (zero-copy load). The mappings live until process exit;
	// ignored on platforms without mmap support.
	Mmap bool
}

// CheckpointStats counts what checkpoints did, cumulatively since
// Open. All fields are atomics: the serving layer's metrics endpoint
// reads them while checkpoints run.
type CheckpointStats struct {
	// Checkpoints counts committed checkpoints.
	Checkpoints atomic.Int64
	// ShardsWritten counts shard part files freshly written (dirty or
	// full rewrites).
	ShardsWritten atomic.Int64
	// ShardsSkipped counts shard parts carried over by reference
	// because no logged update touched them.
	ShardsSkipped atomic.Int64
	// BytesWritten counts part + manifest bytes written.
	BytesWritten atomic.Int64
	// PartsRemoved counts obsolete files garbage-collected after
	// commits and at Open.
	PartsRemoved atomic.Int64
}

// Store combines the checkpoint manifest and the WAL of one data
// directory. Append/Checkpoint must be serialized by the caller (the
// serving layer holds its write mutex across both); Base, BaseVersion,
// BaseExtensions, Tail and the stats accessors are safe to call
// anytime.
//
// Incremental contract: between two checkpoints the graph handed to
// Checkpoint must differ from the previous one only through update
// batches passed to Append (plus the recovered tail) — exactly what
// the serving layer guarantees. A caller checkpointing an unrelated
// graph of the same shape must call MarkAllDirty first.
type Store struct {
	dir  string
	wal  *WAL
	opts Options

	// base is the checkpointed backend found at Open (nil on a fresh
	// directory) and baseVersion its write clock; tail holds the WAL
	// record batches appended after that checkpoint; baseExts the
	// serialized view extensions stored with the checkpoint (empty when
	// none were persisted). All four are written once at Open and
	// read-only afterwards.
	base        graph.Reader
	baseVersion uint64
	tail        [][]view.EdgeUpdate
	baseExts    []ExtensionData

	// mu guards the dirty-shard bookkeeping shared by Append (marking)
	// and Checkpoint (consuming); the caller already serializes those,
	// but the lock keeps MarkAllDirty safe from any goroutine.
	mu       sync.Mutex
	man      *manifest        // guarded by mu; committed manifest, nil before the first checkpoint
	dirty    map[int]struct{} // guarded by mu; shards touched since the last checkpoint
	dirtyAll bool             // guarded by mu; next checkpoint must write everything

	stats CheckpointStats
}

// Open opens (creating if needed) the data directory: loads the
// committed checkpoint when one exists, removes leftovers of crashed
// checkpoints — half-written temporaries and unreferenced part files —
// fsyncing the directory after any removal, and scans the WAL,
// truncating a torn or corrupted tail at the first bad frame. The
// returned store exposes the checkpoint via Base/BaseExtensions and
// the replayable update batches via Tail.
//
// A directory holding a GVSNAP01 current.snap and no MANIFEST is an
// error, not a fresh directory: booting it empty and replaying the WAL
// onto the empty graph would silently lose the checkpointed state.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts, dirty: make(map[int]struct{})}
	// A leftover temporary means a checkpoint crashed before its rename;
	// the committed manifest is still authoritative. The removal is
	// fsynced so a later crash cannot resurrect it.
	if err := os.Remove(filepath.Join(dir, manifestTmp)); err == nil {
		if err := syncDir(dir); err != nil {
			return nil, err
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}

	maniPath := filepath.Join(dir, manifestName)
	if data, err := os.ReadFile(maniPath); err == nil {
		m, err := decodeManifest(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", maniPath, err)
		}
		g, exts, err := loadManifestGraph(dir, m, opts.Mmap)
		if err != nil {
			return nil, err
		}
		s.base, s.baseVersion, s.baseExts = g, m.version, exts
		s.man = m
		// Orphaned parts from a checkpoint that crashed mid-write (and a
		// retired current.snap superseded by a manifest) are garbage.
		if err := s.gc(m, true); err != nil {
			return nil, err
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	} else {
		snapPath := filepath.Join(dir, snapName)
		if _, err := os.Stat(snapPath); err == nil {
			return nil, fmt.Errorf("store: %s is a single-file GVSNAP01 checkpoint, which this build no longer reads; "+
				"open the directory once with a build that still migrates GVSNAP01 to the MANIFEST layout, then retry", snapPath)
		} else if !os.IsNotExist(err) {
			return nil, err
		}
		s.dirtyAll = true
	}

	wal, tail, err := OpenWAL(filepath.Join(dir, walName), opts.Sync)
	if err != nil {
		return nil, err
	}
	s.wal, s.tail = wal, tail
	// The tail's updates are not reflected in the on-disk shards yet:
	// they dirty the same shards a live Append would.
	for _, batch := range tail {
		s.markDirty(batch)
	}
	return s, nil
}

// Dir returns the data directory path.
func (s *Store) Dir() string { return s.dir }

// Base returns the checkpointed graph backend found at Open (a *Frozen
// or *Sharded), or nil on a fresh directory. Read-only.
func (s *Store) Base() graph.Reader { return s.base }

// BaseVersion returns the write clock the checkpoint was taken at.
func (s *Store) BaseVersion() uint64 { return s.baseVersion }

// BaseExtensionData returns the serialized view extensions stored with
// the checkpoint, if any (see BaseExtensions for binding them to a view
// set). Read-only.
func (s *Store) BaseExtensionData() []ExtensionData { return s.baseExts }

// Tail returns the WAL record batches appended after the checkpoint, in
// log order — the updates recovery must replay. Read-only.
func (s *Store) Tail() [][]view.EdgeUpdate { return s.tail }

// TailUpdates counts the individual edge updates across Tail.
func (s *Store) TailUpdates() int {
	n := 0
	for _, b := range s.tail {
		n += len(b)
	}
	return n
}

// Append logs one update batch ahead of acknowledgement (see
// WAL.Append for the durability and rollback contract) and marks the
// batch's shards dirty for the next incremental checkpoint.
func (s *Store) Append(batch []view.EdgeUpdate) error {
	if err := s.wal.Append(batch); err != nil {
		return err
	}
	s.markDirty(batch)
	return nil
}

// markDirty records which shards batch touches: an edge (u,v) changes
// the forward CSR (and boundary arrays) of u's shard and the reverse
// CSR of v's shard. Shard ownership is v mod k under the committed
// manifest's k; without a manifest everything is dirty anyway.
func (s *Store) markDirty(batch []view.EdgeUpdate) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dirtyAll || s.man == nil {
		return
	}
	k := graph.NodeID(s.man.k)
	for _, up := range batch {
		if up.From >= 0 {
			s.dirty[int(up.From%k)] = struct{}{}
		}
		if up.To >= 0 {
			s.dirty[int(up.To%k)] = struct{}{}
		}
	}
}

// MarkAllDirty forces the next checkpoint to rewrite every part,
// ignoring the incremental dirty set. Open leaves a fresh or migrated
// directory in this state already; callers need it only to checkpoint
// a graph that did not evolve from the previous checkpoint through
// Append batches.
func (s *Store) MarkAllDirty() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dirtyAll = true
}

// Checkpoint atomically replaces the committed checkpoint with g (and,
// when x is non-nil, its view extensions) at the given write-clock
// version, then compacts the WAL: freshly written part files are
// fsynced under never-reused names, a new manifest referencing them —
// and referencing the untouched shards' existing parts — is committed
// by tmp + fsync + rename + directory fsync, the log is truncated
// (every logged record is covered by g), and superseded part files are
// collected. On error before the manifest rename the previous
// checkpoint and the full WAL remain authoritative.
func (s *Store) Checkpoint(g graph.Reader, x *view.Extensions, version uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	plan := planOf(g)
	old := s.man
	full := s.dirtyAll || old == nil ||
		old.kind != plan.kind || old.k != plan.k || old.numNodes != plan.n
	var seq uint64 = 1
	if old != nil {
		seq = old.seq + 1
	}
	newMan := &manifest{
		kind: plan.kind, k: plan.k, seq: seq, version: version,
		numNodes: plan.n, numEdges: plan.edges,
	}
	var written []partEntry
	var bytes int64
	fail := func(err error) error {
		for _, e := range written {
			os.Remove(filepath.Join(s.dir, e.name()))
		}
		return err
	}

	ge := partEntry{role: roleGlobal, seq: seq}
	if full {
		var err error
		if ge, err = writePartFile(s.dir, ge, func(pw *partWriter) { plan.writeGlobalPart(pw, seq) }); err != nil {
			return fail(err)
		}
		written = append(written, ge)
		bytes += ge.size
	} else {
		ge, _ = old.global()
	}
	newMan.parts = append(newMan.parts, ge)

	var wrote, skipped int64
	for i := 0; i < plan.k; i++ {
		se := partEntry{role: roleShard, idx: i, seq: seq}
		_, isDirty := s.dirty[i]
		if full || isDirty {
			var err error
			i := i
			if se, err = writePartFile(s.dir, se, func(pw *partWriter) { plan.writeShardPart(pw, i, seq) }); err != nil {
				return fail(err)
			}
			written = append(written, se)
			bytes += se.size
			wrote++
		} else {
			se, _ = old.shard(i)
			skipped++
		}
		newMan.parts = append(newMan.parts, se)
	}

	if x != nil {
		data := snapshotExtensionData(x)
		ee, err := writePartFile(s.dir, partEntry{role: roleExts, seq: seq},
			func(pw *partWriter) { writeExtsPart(pw, seq, data) })
		if err != nil {
			return fail(err)
		}
		written = append(written, ee)
		bytes += ee.size
		newMan.parts = append(newMan.parts, ee)
	}

	// The new parts must be durable directory entries before a manifest
	// referencing them can commit.
	if err := syncDir(s.dir); err != nil {
		return fail(err)
	}

	image := encodeManifest(newMan)
	tmp := filepath.Join(s.dir, manifestTmp)
	if err := writeFileSync(tmp, image); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, manifestName)); err != nil {
		os.Remove(tmp)
		return fail(err)
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	// Committed: from here the new manifest is authoritative even if a
	// later step fails.
	s.man = newMan
	s.dirty = make(map[int]struct{})
	s.dirtyAll = false
	s.stats.Checkpoints.Add(1)
	s.stats.ShardsWritten.Add(wrote)
	s.stats.ShardsSkipped.Add(skipped)
	s.stats.BytesWritten.Add(bytes + int64(len(image)))

	if err := s.wal.Reset(); err != nil {
		return err
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	return s.gc(newMan, false)
}

// gc removes every file the committed manifest does not reference:
// superseded part files, orphans of crashed checkpoints and — once a
// manifest exists — a retired current.snap. Only names the store
// itself writes are touched. With strict set, removal errors are
// returned (Open's consistency pass); otherwise collection is
// best-effort (a post-commit checkpoint must not fail over garbage).
func (s *Store) gc(m *manifest, strict bool) error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		if strict {
			return err
		}
		return nil
	}
	referenced := make(map[string]struct{}, len(m.parts))
	for _, e := range m.parts {
		referenced[e.name()] = struct{}{}
	}
	removed := 0
	for _, de := range entries {
		name := de.Name()
		collectable := name == snapName ||
			(strings.HasSuffix(name, ".part") && !isReferenced(referenced, name))
		if !collectable {
			continue
		}
		if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
			if strict {
				return err
			}
			continue
		}
		removed++
	}
	s.stats.PartsRemoved.Add(int64(removed))
	if removed == 0 {
		return nil
	}
	if err := syncDir(s.dir); err != nil && strict {
		return err
	}
	return nil
}

// isReferenced reports whether a .part file belongs to the manifest.
func isReferenced(referenced map[string]struct{}, name string) bool {
	_, ok := referenced[name]
	return ok
}

// WALStats exposes the log's live counters.
func (s *Store) WALStats() *WALStats { return s.wal.Stats() }

// CheckpointStats exposes the checkpoint counters.
func (s *Store) CheckpointStats() *CheckpointStats { return &s.stats }

// WALSize reports the current WAL length in bytes.
func (s *Store) WALSize() int64 { return s.wal.Size() }

// SyncPolicy reports the WAL durability policy the store runs under.
func (s *Store) SyncPolicy() SyncPolicy { return s.wal.policy }

// SetFsyncObserver registers fn to run after every WAL fsync with its
// latency (the serving layer's histogram feed). Pass nil to remove.
func (s *Store) SetFsyncObserver(fn func(time.Duration)) { s.wal.SetObserver(fn) }

// Close flushes and closes the WAL. The checkpoint files need no
// closing — they are only open during Open and Checkpoint (mmap
// mappings deliberately live until process exit; the adopted columns
// alias them).
func (s *Store) Close() error { return s.wal.Close() }

// writeFileSync writes data to path and fsyncs the file.
func writeFileSync(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
	}
	return err
}

// syncDir fsyncs a directory so a just-renamed or just-removed entry
// survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
