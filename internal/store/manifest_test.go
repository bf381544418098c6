package store

// Tests of the per-shard checkpoint layout: incremental rewrites touch
// only dirty shards, the manifest rename is the single commit point
// (crash windows on either side recover cleanly), retired single-file
// snapshots are refused, extensions round-trip exactly, and zero-copy mmap
// loads are indistinguishable from buffered reads.

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"graphviews/internal/graph"
	"graphviews/internal/view"
)

// partNames lists the .part files present in dir, sorted.
func partNames(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.part"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range names {
		names[i] = filepath.Base(names[i])
	}
	sort.Strings(names)
	return names
}

// TestIncrementalCheckpointRewritesDirtyShardsOnly is the acceptance
// criterion: after a batch touching a single shard, the next checkpoint
// rewrites exactly that shard's part file plus the manifest — every
// clean shard (and the global part) is carried over by reference.
func TestIncrementalCheckpointRewritesDirtyShardsOnly(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := richGraph()
	const k = 3
	if err := s.Checkpoint(graph.Shard(g, k), nil, 1); err != nil {
		t.Fatal(err)
	}
	before := partNames(t, dir)
	if got := s.CheckpointStats().ShardsWritten.Load(); got != k {
		t.Fatalf("full checkpoint wrote %d shards, want %d", got, k)
	}

	// One edge whose endpoints both live in shard 0 (0 mod 3 == 3 mod 3).
	batch := []view.EdgeUpdate{{From: 0, To: 3}}
	if err := s.Append(batch); err != nil {
		t.Fatal(err)
	}
	g.AddEdge(0, 3)
	if err := s.Checkpoint(graph.Shard(g, k), nil, 2); err != nil {
		t.Fatal(err)
	}
	st := s.CheckpointStats()
	if w, sk := st.ShardsWritten.Load(), st.ShardsSkipped.Load(); w != k+1 || sk != k-1 {
		t.Fatalf("incremental checkpoint: shards written %d (want %d), skipped %d (want %d)", w, k, w-3, k-1)
	}
	after := partNames(t, dir)
	// The global part and the two clean shard parts keep their seq-1
	// names; shard 0 moved to seq 2 and its seq-1 file was collected.
	carried := 0
	for _, n := range before {
		for _, m := range after {
			if n == m {
				carried++
			}
		}
	}
	if carried != k { // global-1 + shard-1-1 + shard-2-1
		t.Fatalf("carried %d of %v over to %v, want %d untouched parts", carried, before, after, k)
	}
	wantNew := "shard-0-2.part"
	found := false
	for _, n := range after {
		if n == wantNew {
			found = true
		}
	}
	if !found || len(after) != len(before) {
		t.Fatalf("after incremental checkpoint parts = %v, want %v with shard-0-1 replaced by %s", after, before, wantNew)
	}

	// The committed result must still load identically.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !reflect.DeepEqual(s2.Base(), graph.Shard(g, k)) {
		t.Fatal("incrementally checkpointed base differs from a full shard of the same graph")
	}
	if s2.BaseVersion() != 2 {
		t.Fatalf("BaseVersion = %d, want 2", s2.BaseVersion())
	}
}

// TestCheckpointKindChangeForcesFullRewrite: switching backends (or
// shard counts) between checkpoints cannot reuse parts.
func TestCheckpointKindChangeForcesFullRewrite(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := richGraph()
	if err := s.Checkpoint(graph.Shard(g, 3), nil, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(graph.Freeze(g), nil, 2); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !reflect.DeepEqual(s2.Base(), graph.Freeze(g)) {
		t.Fatal("kind change did not rewrite the checkpoint")
	}
	// Every sharded-era part is superseded and must be gone.
	for _, n := range partNames(t, dir) {
		if n != "global-2.part" && n != "shard-0-2.part" {
			t.Fatalf("stale part %s survived the full rewrite", n)
		}
	}
}

// TestLegacySnapshotRejected: a directory holding a single-file GVSNAP01
// current.snap and no MANIFEST fails to open with the upgrade message —
// it must never boot as a fresh, empty graph with the WAL replayed onto
// it. Next to a MANIFEST, a stale current.snap is garbage and is
// collected on open.
func TestLegacySnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, snapName)
	if err := os.WriteFile(snap, []byte("GVSNAP01 checkpoint image"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, Options{})
	if err == nil || !strings.Contains(err.Error(), snap) || !strings.Contains(err.Error(), "migrates GVSNAP01") {
		t.Fatalf("Open over a legacy snapshot: err = %v, want the upgrade message naming %s", err, snap)
	}

	dir = t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := graph.Freeze(richGraph())
	if err := s.Checkpoint(base, nil, 7); err != nil {
		t.Fatal(err)
	}
	s.Close()
	snap = filepath.Join(dir, snapName)
	if err := os.WriteFile(snap, []byte("stale GVSNAP01 image"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen with a stale current.snap next to the manifest: %v", err)
	}
	defer s2.Close()
	if !reflect.DeepEqual(s2.Base(), base) || s2.BaseVersion() != 7 {
		t.Fatal("stale current.snap displaced the manifest checkpoint")
	}
	if _, err := os.Stat(snap); !os.IsNotExist(err) {
		t.Fatalf("stale current.snap not collected: %v", err)
	}
}

// TestCheckpointExtensionsRoundTrip: extensions persisted with the
// graph bind back to the same view set with an identical match
// relation, and refuse to bind to a changed one.
func TestCheckpointExtensionsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := richGraph()
	vs := crashViews()
	x, _ := view.Materialize(context.Background(), g, vs, 1)

	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(graph.Freeze(g), x, 3); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if len(s2.BaseExtensionData()) != len(vs.Defs) {
		t.Fatalf("reopened with %d serialized extensions, want %d", len(s2.BaseExtensionData()), len(vs.Defs))
	}
	got, ok := s2.BaseExtensions(vs)
	if !ok {
		t.Fatal("persisted extensions did not bind to the same view set")
	}
	requireSameExtensions(t, got, x)

	// A different view set (same size) must fall back to rematerialize.
	other := crashViews()
	other.Defs[0].Name = "renamed"
	if _, ok := s2.BaseExtensions(other); ok {
		t.Fatal("extensions bound to a renamed view set")
	}
	if _, ok := s2.BaseExtensions(nil); ok {
		t.Fatal("extensions bound to a nil view set")
	}
}

// TestCheckpointWithoutExtensions: a nil extensions argument writes no
// exts part and BaseExtensions reports no binding.
func TestCheckpointWithoutExtensions(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(graph.Freeze(richGraph()), nil, 1); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if len(s2.BaseExtensionData()) != 0 {
		t.Fatal("nil extensions serialized an exts part")
	}
	if _, ok := s2.BaseExtensions(crashViews()); ok {
		t.Fatal("BaseExtensions bound with nothing persisted")
	}
}

// TestMmapLoad: a zero-copy (mmap) load is indistinguishable from a
// buffered one, graph and extensions alike, for both backends.
func TestMmapLoad(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	g := richGraph()
	vs := crashViews()
	x, _ := view.Materialize(context.Background(), g, vs, 1)
	for _, backend := range []struct {
		name string
		r    graph.Reader
	}{
		{"frozen", graph.Freeze(g)},
		{"sharded", graph.Shard(g, 3)},
	} {
		backend := backend
		t.Run(backend.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Checkpoint(backend.r, x, 1); err != nil {
				t.Fatal(err)
			}
			s.Close()
			s2, err := Open(dir, Options{Mmap: true})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if !reflect.DeepEqual(s2.Base(), backend.r) {
				t.Fatal("mmap-loaded base differs from the checkpointed backend")
			}
			got, ok := s2.BaseExtensions(vs)
			if !ok {
				t.Fatal("mmap load dropped the extensions")
			}
			requireSameExtensions(t, got, x)
		})
	}
}

// TestOrphanPartsRemovedAtOpen: part files a crashed checkpoint left
// behind (written but never committed by a manifest rename), plus a
// half-written manifest temporary, are collected at Open without
// touching the committed state.
func TestOrphanPartsRemovedAtOpen(t *testing.T) {
	dir := t.TempDir()
	base := graph.Freeze(richGraph())
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(base, nil, 1); err != nil {
		t.Fatal(err)
	}
	s.Close()
	for _, n := range []string{"global-9.part", "shard-0-9.part", "exts-9.part", manifestTmp} {
		if err := os.WriteFile(filepath.Join(dir, n), []byte("crashed checkpoint debris"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open with orphan parts: %v", err)
	}
	defer s2.Close()
	if !reflect.DeepEqual(s2.Base(), base) {
		t.Fatal("orphans displaced the committed checkpoint")
	}
	for _, n := range partNames(t, dir) {
		if n != "global-1.part" && n != "shard-0-1.part" {
			t.Fatalf("orphan %s survived Open", n)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, manifestTmp)); !os.IsNotExist(err) {
		t.Fatalf("stale %s not removed: %v", manifestTmp, err)
	}
	if s2.CheckpointStats().PartsRemoved.Load() < 3 {
		t.Fatalf("PartsRemoved = %d, want >= 3", s2.CheckpointStats().PartsRemoved.Load())
	}
}

// TestCrashBeforeManifestRename: with new parts on disk but the old
// manifest still committed, recovery serves the old checkpoint and the
// full WAL tail — nothing acknowledged is lost, nothing half-written is
// visible.
func TestCrashBeforeManifestRename(t *testing.T) {
	dir := t.TempDir()
	base := graph.Freeze(richGraph())
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(base, nil, 1); err != nil {
		t.Fatal(err)
	}
	appended := [][]view.EdgeUpdate{{{From: 0, To: 2}}, {{From: 1, To: 3, Delete: true}}}
	for _, b := range appended {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	// Simulate the next checkpoint crashing after writing its parts (and
	// even its manifest temporary) but before the rename.
	for _, n := range []string{"global-2.part", "shard-0-2.part", manifestTmp} {
		if err := os.WriteFile(filepath.Join(dir, n), []byte("uncommitted"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer s2.Close()
	if !reflect.DeepEqual(s2.Base(), base) || s2.BaseVersion() != 1 {
		t.Fatal("uncommitted checkpoint leaked into the recovered state")
	}
	if !reflect.DeepEqual(s2.Tail(), appended) {
		t.Fatalf("recovered tail %v, want the full appended log", s2.Tail())
	}
}

// replayReflectedTail checkpoints a graph (with extensions) that
// already reflects batches, re-appends those batches to the WAL — the
// crash window between the manifest rename and the WAL reset — and
// replays the recovered tail through delta propagation on top of the
// restored extensions. It returns the maintained state, the restored
// extensions, and the frozen graph from before the replay.
func replayReflectedTail(t *testing.T, batches [][]view.EdgeUpdate) (*view.Maintained, *view.Extensions, *graph.Frozen, *view.Set) {
	t.Helper()
	dir := t.TempDir()
	g := richGraph()
	vs := crashViews()
	// The graph the checkpoint captures already contains every batch.
	for _, b := range batches {
		for _, up := range b {
			if up.Delete {
				g.RemoveEdge(up.From, up.To)
			} else {
				g.AddEdge(up.From, up.To)
			}
		}
	}
	x, _ := view.Materialize(context.Background(), g, vs, 1)

	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(graph.Freeze(g), x, 4); err != nil {
		t.Fatal(err)
	}
	// Crash between rename and reset: the reflected batches are still in
	// the log. (Append re-frames them exactly as a pre-checkpoint Append
	// did.)
	for _, b := range batches {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !reflect.DeepEqual(s2.Tail(), batches) {
		t.Fatal("reflected tail not recovered verbatim")
	}
	restored, ok := s2.BaseExtensions(vs)
	if !ok {
		t.Fatal("checkpointed extensions did not bind")
	}
	thawed := thaw(t, s2.Base())
	frozenBefore := graph.Freeze(thawed)
	m := view.NewMaintainedFromExtensions(thawed, restored, 1)
	feed := view.NewFeed(m)
	for _, b := range s2.Tail() {
		feed.Submit(b...)
		feed.Flush()
	}
	return m, restored, frozenBefore, vs
}

// TestReplayReflectedTailIdempotent pins the crash window between the
// manifest rename and the WAL reset: the log then holds a suffix of
// updates the committed checkpoint already reflects, and replaying it
// with the checkpoint's own extensions attached must be a strict no-op
// — zero net graph change, byte-identical extensions, and no
// rematerialization.
func TestReplayReflectedTailIdempotent(t *testing.T) {
	// No record reverses an earlier one, so every replayed operation
	// already matches the checkpointed state and maintenance must not
	// touch a single extension.
	batches := [][]view.EdgeUpdate{
		{{From: 0, To: 2}, {From: 2, To: 5}},
		{{From: 4, To: 1}},
		{{From: 1, To: 3, Delete: true}},
	}
	m, restored, frozenBefore, vs := replayReflectedTail(t, batches)
	if !reflect.DeepEqual(graph.Freeze(m.G), frozenBefore) {
		t.Fatal("replaying an already-reflected tail changed the graph")
	}
	got := m.SnapshotExtensions()
	if !reflect.DeepEqual(got.Exts, restored.Exts) {
		t.Fatal("replaying an already-reflected tail changed the extensions")
	}
	if m.Stats.Recomputes != 0 {
		t.Fatalf("no-op replay rematerialized %d views", m.Stats.Recomputes)
	}
	want, _ := view.Materialize(context.Background(), m.G, vs, 1)
	requireSameExtensions(t, got, want)
}

// TestReplayReflectedTailWithReversal: when the reflected suffix
// contains an add that a later record deletes, the replay transiently
// changes the graph — but the end state is still exactly the
// checkpoint: per edge, the suffix's last operation decided both. The
// extensions must end semantically identical to rematerialization.
func TestReplayReflectedTailWithReversal(t *testing.T) {
	batches := [][]view.EdgeUpdate{
		{{From: 0, To: 2}, {From: 2, To: 5}},
		{{From: 0, To: 2, Delete: true}},
		{{From: 4, To: 1}},
	}
	m, _, frozenBefore, vs := replayReflectedTail(t, batches)
	if !reflect.DeepEqual(graph.Freeze(m.G), frozenBefore) {
		t.Fatal("replay with a reversal did not restore the checkpointed graph")
	}
	want, _ := view.Materialize(context.Background(), m.G, vs, 1)
	requireSameExtensions(t, m.SnapshotExtensions(), want)
}
