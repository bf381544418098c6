package store

// WAL, recovery and checkpoint micro-benchmarks feeding make bench-wal:
// append cost per record under each sync policy, recovery decode+replay
// throughput, and full and incremental checkpoint cost.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"graphviews/internal/graph"
	"graphviews/internal/view"
)

// BenchmarkWALAppend measures one framed record append per iteration
// under each sync policy (always is fsync-bound by design).
func BenchmarkWALAppend(b *testing.B) {
	for _, spec := range []string{"always", "none", "5ms"} {
		policy, err := ParseSyncPolicy(spec)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("sync="+spec, func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "wal.log")
			w, _, err := OpenWAL(path, policy)
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			batch := []view.EdgeUpdate{{From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 1, Delete: true}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Append(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecoveryReplay measures crash recovery end to end — decode a
// 100k-record WAL image and replay it through delta propagation into
// maintained views — the "recovery ms per 100k records" number.
func BenchmarkRecoveryReplay(b *testing.B) {
	const records = 100_000
	g := richGraph()
	n := g.NumNodes()
	var img []byte
	for i := 0; i < records; i++ {
		img = encodeRecord(img, []view.EdgeUpdate{{
			From:   graph.NodeID(i % n),
			To:     graph.NodeID((i*7 + 1) % n),
			Delete: i%9 == 0,
		}})
	}
	vs := crashViews()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batches, good := DecodeAll(img)
		if good != int64(len(img)) || len(batches) != records {
			b.Fatalf("decoded %d batches over %d bytes", len(batches), good)
		}
		m, _ := view.NewMaintained(context.Background(), g.Clone(), vs, 1)
		feed := view.NewFeed(m)
		for _, batch := range batches {
			feed.Submit(batch...)
		}
		feed.Flush()
	}
}

// benchMutable builds the checkpoint benchmarks' graph: nodes nodes
// with four out-edges each (~200k edges at 50k nodes).
func benchMutable(b *testing.B, nodes int) *graph.Graph {
	b.Helper()
	g := graph.New()
	labels := []string{"person", "site", "item", "tag"}
	for i := 0; i < nodes; i++ {
		g.AddNode(labels[i%len(labels)])
	}
	for i := 0; i < nodes; i++ {
		u := graph.NodeID(i)
		g.AddEdge(u, graph.NodeID((i+1)%nodes))
		g.AddEdge(u, graph.NodeID((i*13+7)%nodes))
		g.AddEdge(u, graph.NodeID((i*31+3)%nodes))
		g.AddEdge(u, graph.NodeID((i*101+11)%nodes))
	}
	return g
}

func benchGraph(b *testing.B) *graph.Frozen {
	return graph.Freeze(benchMutable(b, 50_000))
}

// BenchmarkStoreCheckpointFull measures a full checkpoint cycle (part
// writes, fsyncs, manifest rename, WAL compaction, GC) against a real
// filesystem. MarkAllDirty forces the full rewrite each iteration —
// the worst-case bound under the manifest layout (renamed from the
// pre-manifest StoreCheckpoint series, whose single-file protocol it
// no longer measures); BenchmarkStoreCheckpointDirtyFraction measures
// the incremental path.
func BenchmarkStoreCheckpointFull(b *testing.B) {
	f := benchGraph(b)
	dir := b.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MarkAllDirty()
		if err := s.Checkpoint(f, nil, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if fi, err := os.Stat(filepath.Join(dir, "MANIFEST")); err != nil || fi.Size() == 0 {
		b.Fatal(fmt.Errorf("checkpoint missing: %v", err))
	}
}

// BenchmarkStoreCheckpointDirtyFraction measures the incremental
// checkpoint path: an 8-way sharded backend where each cycle dirties a
// varying number of shards via real WAL appends before checkpointing.
// bytes/op drops roughly linearly with the clean fraction — the number
// BENCH_PR10.json tracks against the full-rewrite bound above.
func BenchmarkStoreCheckpointDirtyFraction(b *testing.B) {
	const k = 8
	sh := graph.Shard(benchMutable(b, 50_000), k)
	for _, dirty := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("dirty=%d_of_%d", dirty, k), func(b *testing.B) {
			dir := b.TempDir()
			s, err := Open(dir, Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			if err := s.Checkpoint(sh, nil, 1); err != nil {
				b.Fatal(err)
			}
			before := s.CheckpointStats().BytesWritten.Load()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for d := 0; d < dirty; d++ {
					// Both endpoints land in shard d, so the append dirties
					// exactly that shard.
					up := []view.EdgeUpdate{{From: graph.NodeID(d), To: graph.NodeID(d + k)}}
					if err := s.Append(up); err != nil {
						b.Fatal(err)
					}
				}
				if err := s.Checkpoint(sh, nil, uint64(i+2)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			written := s.CheckpointStats().BytesWritten.Load() - before
			b.ReportMetric(float64(written)/float64(b.N), "ckpt-bytes/op")
		})
	}
}

// BenchmarkRecoveryExtensions compares the two clean-tail boot paths: a
// restore that adopts the checkpoint's persisted extensions versus a
// rematerialization from scratch — the "recovery time with vs without
// persisted extensions" number in BENCH_PR10.json.
func BenchmarkRecoveryExtensions(b *testing.B) {
	g := benchMutable(b, 2_000)
	vs := crashViews()
	x, _ := view.Materialize(context.Background(), g, vs, 1)
	dir := b.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Checkpoint(graph.Freeze(g), x, 1); err != nil {
		b.Fatal(err)
	}
	s.Close()

	b.Run("restore", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := Open(dir, Options{})
			if err != nil {
				b.Fatal(err)
			}
			restored, ok := s.BaseExtensions(vs)
			if !ok {
				b.Fatal("persisted extensions did not bind")
			}
			thawed := s.Base().(*graph.Frozen).Thaw()
			m := view.NewMaintainedFromExtensions(thawed, restored, 1)
			if m.Stats.Recomputes != 0 {
				b.Fatal("restore path rematerialized")
			}
			s.Close()
		}
	})
	b.Run("rematerialize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := Open(dir, Options{})
			if err != nil {
				b.Fatal(err)
			}
			thawed := s.Base().(*graph.Frozen).Thaw()
			m, _ := view.NewMaintained(context.Background(), thawed, vs, 1)
			if len(m.SnapshotExtensions().Exts) != len(x.Exts) {
				b.Fatal("rematerialization produced a different view set")
			}
			s.Close()
		}
	})
}
