package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	gv "graphviews"
)

// workload is one traffic mix; README.md says why each exists. All
// three use the youtube generator and YouTubeViews; queries are
// GlueQuery patterns, contained in the views by construction, so every
// /query takes the containment → MatchJoin path.
type workload struct {
	Name  string
	Nodes int
	Edges int
	// Pool is the number of distinct glued queries requests draw from.
	Pool int
	// Ladder, when set, narrows the pool to one query per entry: the one
	// whose MatchJoin seeds the number of pairs closest to the entry.
	// Seeded pairs predict a query's cost better than its answer size (a
	// query with an empty answer can seed 30k pairs), so the hot set does
	// about the same work whatever the seed.
	Ladder []int
	// QueryRate is the open-loop /query arrival rate per second; 0 runs
	// a closed loop of Clients clients with no think time instead.
	QueryRate float64
	Clients   int
	// Pairs requests full match sets (?pairs=1&limit=0).
	Pairs bool
	// WriteRate is the open-loop /update arrival rate per second, each
	// request a batch of Batch random add/del edge updates.
	WriteRate float64
	Batch     int
	// Durable serves from a fresh -data-dir with -wal-sync always and
	// timer publishing every PublishEvery, and ends the run with
	// RestartCycles kill -9 restarts over a tail of TailBatches
	// acknowledged, unpublished batches each.
	Durable       bool
	PublishEvery  time.Duration
	TailBatches   int
	RestartCycles int
}

var workloads = []workload{
	{
		Name:  "read-open",
		Nodes: 20000, Edges: 80000,
		Pool:      256,
		QueryRate: 200,
	},
	{
		Name:  "answers-closed",
		Nodes: 100000, Edges: 400000,
		Pool:    64,
		Ladder:  []int{1000, 3000, 6000, 10000, 15000, 20000, 30000, 45000},
		Clients: 2,
		Pairs:   true,
	},
	{
		Name:  "mixed-durable",
		Nodes: 20000, Edges: 80000,
		Pool:          64,
		QueryRate:     200,
		WriteRate:     40,
		Batch:         4,
		Durable:       true,
		PublishEvery:  500 * time.Millisecond,
		TailBatches:   200,
		RestartCycles: 3,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// smoke shrinks a workload to a seconds-long run over the same code
// path: a tenth of the graph, fewer distinct queries and a short tail.
func (w workload) smoke() workload {
	w.Nodes /= 10
	w.Edges /= 10
	if w.Pool > 16 {
		w.Pool = 16
	}
	if w.TailBatches > 0 {
		w.TailBatches = 20
		w.RestartCycles = 1
	}
	return w
}

// batch is one /update request: its updates and the rendered body.
type batch struct {
	ups  []gv.EdgeUpdate
	body []byte
}

// inputs is everything generated from the seed. The server receives
// only the graph and views files and the request bodies; the benchmark
// keeps its own copy of the graph to check answers against.
type inputs struct {
	graphPath string
	viewsPath string
	g         *gv.Graph
	vs        *gv.ViewSet
	queries   []*gv.Pattern
	bodies    [][]byte
	// order is the sequence of query indices requests send: one for the
	// open loop's arrivals, or one per closed-loop client. The warm-up
	// and the traced replay follow it too.
	order [][]int
	// writes are the window's write batches in arrival order; tails
	// holds one fixed tail of batches per restart cycle.
	writes []batch
	tails  [][]batch
}

// generate builds a workload's inputs from the seed and writes the graph
// and view files into dir.
func generate(w workload, seed int64, seconds float64, dir string) (*inputs, error) {
	in := &inputs{
		graphPath: filepath.Join(dir, "graph.txt"),
		viewsPath: filepath.Join(dir, "views.txt"),
		g:         gv.GenerateYouTubeLike(w.Nodes, w.Edges, seed),
		vs:        gv.YouTubeViews(),
	}
	if err := writeGraphFile(in.graphPath, in.g); err != nil {
		return nil, err
	}
	var views strings.Builder
	for _, d := range in.vs.Defs {
		views.WriteString(d.Pattern.String())
		views.WriteString("\n")
	}
	if err := os.WriteFile(in.viewsPath, []byte(views.String()), 0o644); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(seed))
	in.queries = queryPool(rng, in.vs, w.Pool)
	if len(in.queries) < w.Pool {
		return nil, fmt.Errorf("query pool: only %d distinct glued queries of %d", len(in.queries), w.Pool)
	}
	if len(w.Ladder) > 0 {
		in.queries = onePerRung(in.queries, gv.Materialize(gv.Freeze(in.g), in.vs), w.Ladder)
	}
	for _, q := range in.queries {
		in.bodies = append(in.bodies, []byte(q.String()))
	}
	orng := rand.New(rand.NewSource(seed + 2))
	if w.QueryRate > 0 {
		in.order = [][]int{draws(orng, len(in.bodies), int(w.QueryRate*seconds))}
	}
	for c := 0; c < w.Clients; c++ {
		// Far more than a client sends in a window; it wraps around.
		in.order = append(in.order, draws(orng, len(in.bodies), 1<<16))
	}
	if w.WriteRate > 0 {
		m := newEdgeModel(in.g)
		wrng := rand.New(rand.NewSource(seed + 1))
		for i := 0; i < int(w.WriteRate*seconds); i++ {
			in.writes = append(in.writes, m.randomBatch(wrng, w.Batch, w.Nodes))
		}
		for c := 0; c < w.RestartCycles; c++ {
			var tail []batch
			for i := 0; i < w.TailBatches; i++ {
				tail = append(tail, m.randomBatch(wrng, w.Batch, w.Nodes))
			}
			in.tails = append(in.tails, tail)
		}
	}
	return in, nil
}

func writeGraphFile(path string, g *gv.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := gv.WriteGraph(bw, g); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// queryPool draws up to n distinct glued queries of 3–5 nodes and 3–5
// edges.
func queryPool(rng *rand.Rand, vs *gv.ViewSet, n int) []*gv.Pattern {
	seen := map[string]bool{}
	var pool []*gv.Pattern
	for attempts := 0; len(pool) < n && attempts < 100*n; attempts++ {
		q := gv.GlueQuery(rng, vs, 3+rng.Intn(3), 3+rng.Intn(3))
		if s := q.String(); !seen[s] {
			seen[s] = true
			pool = append(pool, q)
		}
	}
	return pool
}

// edgeModel is the benchmark's view of the edge set while it generates
// write batches: deletes pick existing edges, so they take effect.
type edgeModel struct {
	idx  map[[2]gv.NodeID]int
	list [][2]gv.NodeID
}

func newEdgeModel(g *gv.Graph) *edgeModel {
	m := &edgeModel{idx: make(map[[2]gv.NodeID]int, g.NumEdges())}
	g.Edges(func(u, v gv.NodeID) bool {
		m.add([2]gv.NodeID{u, v})
		return true
	})
	return m
}

func (m *edgeModel) add(e [2]gv.NodeID) {
	if _, ok := m.idx[e]; !ok {
		m.idx[e] = len(m.list)
		m.list = append(m.list, e)
	}
}

func (m *edgeModel) del(e [2]gv.NodeID) {
	i, ok := m.idx[e]
	if !ok {
		return
	}
	last := m.list[len(m.list)-1]
	m.list[i] = last
	m.idx[last] = i
	m.list = m.list[:len(m.list)-1]
	delete(m.idx, e)
}

// randomBatch draws n updates, half deletes of existing edges and half
// inserts of random node pairs, and applies them to the model.
func (m *edgeModel) randomBatch(rng *rand.Rand, n, nodes int) batch {
	var b batch
	var sb strings.Builder
	for i := 0; i < n; i++ {
		var up gv.EdgeUpdate
		if rng.Intn(2) == 0 && len(m.list) > 0 {
			e := m.list[rng.Intn(len(m.list))]
			up = gv.EdgeUpdate{From: e[0], To: e[1], Delete: true}
			m.del(e)
			fmt.Fprintf(&sb, "del %d %d\n", e[0], e[1])
		} else {
			u, v := gv.NodeID(rng.Intn(nodes)), gv.NodeID(rng.Intn(nodes))
			up = gv.EdgeUpdate{From: u, To: v}
			m.add([2]gv.NodeID{u, v})
			fmt.Fprintf(&sb, "add %d %d\n", u, v)
		}
		b.ups = append(b.ups, up)
	}
	b.body = []byte(sb.String())
	return b
}

// applyBatches replays acknowledged batches onto a copy of g, giving the
// graph the server must hold after them.
func applyBatches(g *gv.Graph, acked []batch) *gv.Graph {
	c := g.Clone()
	for _, b := range acked {
		for _, up := range b.ups {
			if up.Delete {
				c.RemoveEdge(up.From, up.To)
			} else {
				c.AddEdge(up.From, up.To)
			}
		}
	}
	return c
}

// onePerRung picks, for each target in turn, the unpicked query whose
// MatchJoin over x seeds the number of pairs closest to it.
func onePerRung(pool []*gv.Pattern, x *gv.Extensions, targets []int) []*gv.Pattern {
	eng := gv.NewEngine()
	sizes := make([]int, len(pool))
	for i, q := range pool {
		if _, _, st, err := eng.Answer(q, x, gv.UseMinimal); err == nil {
			sizes[i] = st.InitialPairs
		}
	}
	picked := make([]bool, len(pool))
	var out []*gv.Pattern
	for _, t := range targets {
		best := -1
		for i := range pool {
			if !picked[i] && (best < 0 || abs(sizes[i]-t) < abs(sizes[best]-t)) {
				best = i
			}
		}
		picked[best] = true
		out = append(out, pool[best])
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// draws is count uniform draws from [0, n).
func draws(rng *rand.Rand, n, count int) []int {
	out := make([]int, count)
	for i := range out {
		out[i] = rng.Intn(n)
	}
	return out
}
