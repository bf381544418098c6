package graphviews_test

// Sharded-backend benchmarks: the shard sweep of the materialize+answer
// pipeline (pre-partitioned snapshots, so the split is amortized across
// iterations the same way the frozen A/B amortizes the freeze) and the
// O(|V|+|E|) splitter itself. Run via `make bench-sharded`; CI runs one
// iteration of the sweep in its bench-smoke job (`make bench-smoke`).

import (
	"fmt"
	"testing"

	gv "graphviews"
)

// shardSweep is the shard-count axis of the benchmark matrix.
var shardSweep = []int{1, 2, 4, 8}

// BenchmarkAnswerSharded sweeps the materialize+answer pipeline over
// shard counts at a fixed 4-worker pool: candidate seeding fans out per
// shard, everything downstream runs on the sharded Reader unchanged.
// shards=1 is the frozen baseline (Shard with k=1 keeps one partition).
func BenchmarkAnswerSharded(b *testing.B) {
	g, vs, _, q, _ := microWorkload()
	fz := gv.Freeze(g)
	for _, k := range shardSweep {
		b.Run(fmt.Sprintf("shards=%d/workers=4", k), func(b *testing.B) {
			sh := gv.GraphReader(fz)
			if k > 1 {
				sh = gv.Shard(fz, k)
			}
			eng := gv.NewEngine(gv.WithParallelism(4))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x, err := eng.Materialize(sh, vs)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, _, err := eng.Answer(q, x, gv.UseAll); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardSplit measures Shard itself — the O(|V|+|E|) cost an
// engine pays per call when it shards internally rather than being
// handed a pre-built *Sharded.
func BenchmarkShardSplit(b *testing.B) {
	g, _, _, _, _ := microWorkload()
	fz := gv.Freeze(g)
	for _, k := range []int{2, 8} {
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				gv.Shard(fz, k)
			}
		})
	}
}
