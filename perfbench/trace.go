package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	gv "graphviews"
	"graphviews/internal/core"
	"graphviews/internal/serve"
	"graphviews/internal/store"
)

// span is one timed call in the traced replay. A request span has
// parent -1; its children wrap the layer calls made for that request.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans in memory. A tracer that is off records nothing,
// which gives the untraced side of the overhead measurement.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, req int32) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{ID: int32(len(t.spans)), Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.t0))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// Traced replay lengths: at most this many queries (closed loop) or
// this much of the schedule (open loop) are replayed.
const (
	tracedClosedQueries = 300
	tracedOpenSpan      = 5 * time.Second
	overheadQueries     = 100
)

// replayOp is one operation of the traced replay.
type replayOp struct {
	kind  byte // 'q' query, 'w' write, 'p' publish
	index int  // query body or write batch
}

// traced rebuilds the workload's layers in-process from the same files,
// replays its requests in schedule order with a span around every layer
// call, writes the spans out and derives the per-layer metrics.
func (r *runner) traced(res *windowResult, counters map[string]float64) error {
	w, in := r.w, r.in
	vs, err := readViews(in.viewsPath)
	if err != nil {
		return err
	}
	eng := gv.NewEngine(gv.WithParallelism(0), gv.WithShards(1))

	// view.materialize: Engine.Maintain over the generated graph.
	var mat []time.Duration
	for i := 0; i < 3; i++ {
		g, err := readGraph(in.graphPath)
		if err != nil {
			return err
		}
		t := time.Now()
		if _, err := eng.Maintain(g, vs); err != nil {
			return err
		}
		mat = append(mat, time.Since(t))
	}

	accessLog, err := os.Create(filepath.Join(r.o.out, "traced-access.log"))
	if err != nil {
		return err
	}
	defer accessLog.Close()
	// gvserve's defaults.
	cfg := serve.Config{
		MaxInFlight:       64,
		RequestTimeout:    5 * time.Second,
		PersistExtensions: true,
		WALBacklogBytes:   256 << 20,
		Logger:            log.New(accessLog, "gvserve: ", log.LstdFlags|log.Lmicroseconds),
	}
	var st *store.Store
	if w.Durable {
		if st, err = openStore(filepath.Join(r.o.out, "traced-server")); err != nil {
			return err
		}
		defer st.Close()
		cfg.Store = st
	}
	g, err := readGraph(in.graphPath)
	if err != nil {
		return err
	}
	srv, err := serve.NewServer(g, vs, cfg)
	if err != nil {
		return err
	}
	defer srv.Close()

	ops := r.replayOps()
	path := "/query?strategy=minimal"
	if w.Pairs {
		path += "&pairs=1&limit=0"
	}
	tq := &tracedQueries{srv: srv, h: srv.Handler(), eng: eng, path: path, bodies: in.bodies}

	var queries []int
	for _, o := range ops {
		if o.kind == 'q' {
			queries = append(queries, o.index)
		}
	}
	overhead, err := tq.overhead(queries[:min(len(queries), overheadQueries)])
	if err != nil {
		return err
	}

	// The replay proper; its counts start from zero.
	tq.n, tq.respBytes, tq.stats, tq.answerPairs = 0, 0, gv.Stats{}, 0
	tr := &tracer{on: true, t0: time.Now()}
	var wr *tracedWrites
	if w.Durable {
		if wr, err = newTracedWrites(eng, vs, in.graphPath, filepath.Join(r.o.out, "traced-standalone")); err != nil {
			return err
		}
		defer func() { wr.st.Close() }() // restart swaps in a reopened store
	}
	for req, o := range ops {
		switch o.kind {
		case 'q':
			err = tq.run(tr, int32(req), o.index)
		case 'w':
			err = wr.write(tr, int32(req), srv, in.writes[o.index].ups)
		case 'p':
			err = wr.publish(tr, int32(req), srv)
		}
		if err != nil {
			return err
		}
	}
	if w.Durable {
		if err := wr.restart(tr, int32(len(ops)), in.tails[0], vs, cfg); err != nil {
			return err
		}
	}
	if err := writeSpans(filepath.Join(r.o.out, "spans.jsonl"), tr.spans); err != nil {
		return err
	}

	rep := r.rep
	byName := durationsByName(tr.spans)
	p := func(name string, q float64) time.Duration { return quantile(sortedDurations(byName[name]), q) }
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

	rttOK := make([]time.Duration, 0, len(res.reads))
	for _, o := range res.reads {
		if o.ok {
			rttOK = append(rttOK, o.rtt)
		}
	}
	handlerP50 := p("serve.handler", 0.5)
	rep.addLayer("serve.handler_us.p50", us(handlerP50), "us", "query_p50_ms on read-open")
	rep.addLayer("serve.handler_us.p99", us(p("serve.handler", 0.99)), "us", "query_per_s on answers-closed")
	rep.addLayer("serve.self_us.p50", us(quantile(sortedDurations(handlerSelf(tr.spans)), 0.5)), "us", "query_per_s on answers-closed")
	rep.addLayer("serve.net_us.p50", us(quantile(sortedDurations(rttOK), 0.5)-handlerP50), "us", "query_p50_ms on read-open")
	rep.addLayer("serve.resp_bytes.mean", tq.respBytes/float64(tq.n), "bytes", "query_per_s on answers-closed")
	rep.addLayer("pattern.parse_us.p50", us(p("pattern.parse", 0.5)), "us", "query_p50_ms on read-open")
	rep.addLayer("core.contain_us.p50", us(p("core.contain", 0.5)), "us", "query_p50_ms on read-open")
	rep.addLayer("core.matchjoin_us.p50", us(p("core.matchjoin", 0.5)), "us", "query_p50_ms on read-open")
	rep.addLayer("core.matchjoin_us.p99", us(p("core.matchjoin", 0.99)), "us", "query_per_s on answers-closed")
	rep.addLayer("core.answer_us.p50", us(p("core.answer", 0.5)), "us", "query_p50_ms on read-open")
	n := float64(tq.n)
	rep.addLayer("core.initial_pairs", float64(tq.stats.InitialPairs)/n, "pairs", "core.matchjoin_us on answers-closed")
	rep.addLayer("core.pair_kills", float64(tq.stats.PairKills)/n, "pairs", "core.matchjoin_us on answers-closed")
	rep.addLayer("core.edge_scans", float64(tq.stats.EdgeScans)/n, "count", "core.matchjoin_us on answers-closed")
	rep.addLayer("core.answer_pairs", float64(tq.answerPairs)/n, "pairs", "core.matchjoin_us on answers-closed")
	rep.addLayer("core.kill_ratio", float64(tq.stats.PairKills)/float64(max(tq.stats.InitialPairs, 1)), "ratio", "core.matchjoin_us on answers-closed")
	rep.addLayer("view.materialize_ms", ms(median(mat)), "ms", "setup_s on every workload")
	rep.addLayer("trace.overhead_us", us(overhead), "us", "nothing: spans only")
	rep.addLayer("serve.shed_total", counters["gvserve_shed_total"], "count", "error_frac on every workload")
	// Layer spans have no children, so their durations above are their
	// self times; a request's self time is the benchmark's own work between
	// the layer calls.
	rep.addLayer("self.request_us.p50", us(quantile(sortedDurations(selfTimes(tr.spans, "request")), 0.5)), "us", "nothing: benchmark bookkeeping")
	if w.Durable {
		wr.report(rep, p, counters, len(res.writes)*w.Batch)
	}
	return nil
}

// replayOps is the traced replay's request sequence: the window's
// queries in the same order, and on the durable workload its writes and
// publishes merged in by due time.
func (r *runner) replayOps() []replayOp {
	w := r.w
	var ops []replayOp
	if w.QueryRate == 0 {
		for k := 0; len(ops) < tracedClosedQueries; k++ {
			for _, seq := range r.in.order {
				ops = append(ops, replayOp{'q', seq[k]})
			}
		}
		return ops
	}
	window := time.Duration(r.o.seconds) * time.Second
	span := min(window, tracedOpenSpan)
	dues := schedule(w.QueryRate, window)
	order := r.in.order[0]
	type timed struct {
		due time.Duration
		op  replayOp
	}
	var all []timed
	for i, d := range dues {
		if d < span {
			all = append(all, timed{d, replayOp{'q', order[i]}})
		}
	}
	if w.WriteRate > 0 {
		for i, d := range schedule(w.WriteRate, window) {
			if d < span {
				all = append(all, timed{d, replayOp{'w', i}})
			}
		}
		for d := w.PublishEvery; d < span; d += w.PublishEvery {
			all = append(all, timed{d, replayOp{'p', 0}})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].due < all[j].due })
	for _, t := range all {
		ops = append(ops, t.op)
	}
	return ops
}

// tracedQueries runs query requests: the server's handler on an
// in-memory recorder, then the layer calls serve makes, one span each.
type tracedQueries struct {
	srv    *serve.Server
	h      http.Handler
	eng    *gv.Engine
	path   string
	bodies [][]byte

	n           int
	respBytes   float64
	stats       gv.Stats
	answerPairs int
}

// overhead is the tracing overhead per query: each query runs untraced
// and traced back to back, after a short warm-up, and the result is the
// median difference, which a stray slow request does not move. Which
// side goes first alternates, so that neither gets the warmer caches.
func (t *tracedQueries) overhead(queries []int) (time.Duration, error) {
	off := &tracer{}
	on := &tracer{on: true, t0: time.Now()}
	for _, q := range queries[:min(len(queries), 20)] {
		if err := t.run(off, -1, q); err != nil {
			return 0, err
		}
	}
	timed := func(tr *tracer, req int32, q int) (time.Duration, error) {
		start := time.Now()
		err := t.run(tr, req, q)
		return time.Since(start), err
	}
	var diffs []time.Duration
	for i, q := range queries {
		first, second := off, on
		if i%2 == 1 {
			first, second = on, off
		}
		d1, err := timed(first, int32(i), q)
		if err != nil {
			return 0, err
		}
		d2, err := timed(second, int32(i), q)
		if err != nil {
			return 0, err
		}
		if first == on {
			d1, d2 = d2, d1
		}
		diffs = append(diffs, d2-d1)
	}
	return median(diffs), nil
}

func (t *tracedQueries) run(tr *tracer, req int32, i int) error {
	body := t.bodies[i]
	rs := tr.begin("request", -1, req)
	s := tr.begin("serve.handler", rs, req)
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, t.path, bytes.NewReader(body)))
	tr.end(s)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("traced query %d: status %d: %s", i, rec.Code, rec.Body.Bytes())
	}

	s = tr.begin("pattern.parse", rs, req)
	q, err := gv.ParsePattern(string(body))
	if err == nil {
		err = q.Validate()
	}
	tr.end(s)
	if err != nil {
		return err
	}
	x := t.srv.Current().Exts
	s = tr.begin("core.contain", rs, req)
	_, l, ok, err := core.Minimal(q, x.Set)
	tr.end(s)
	if err != nil || !ok {
		return fmt.Errorf("traced query %d: not contained (%v)", i, err)
	}
	s = tr.begin("core.matchjoin", rs, req)
	_, _, err = t.eng.MatchJoin(q, x, l)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("core.answer", rs, req)
	res, _, st, err := t.eng.Answer(q, x, gv.UseMinimal)
	tr.end(s)
	if err != nil {
		return err
	}
	tr.end(rs)
	if tr.on {
		t.n++
		t.respBytes += float64(rec.Body.Len())
		t.stats.InitialPairs += st.InitialPairs
		t.stats.PairKills += st.PairKills
		t.stats.EdgeScans += st.EdgeScans
		t.answerPairs += res.Size()
	}
	return nil
}

// tracedWrites runs the durable workload's writes, publishes and
// restart: the server's call, then the same layers standalone — a
// Maintained with its Feed over a copy of the graph, and a Store in its
// own directory under the same sync policy.
type tracedWrites struct {
	eng   *gv.Engine
	maint *gv.Maintained
	feed  *gv.Feed
	st    *store.Store
	dir   string

	checkpoints       int
	ckBytes, shardsW  int64
	shardsS           int64
	lastBytes, lastSW int64
	lastSS            int64
}

func newTracedWrites(eng *gv.Engine, vs *gv.ViewSet, graphPath, dir string) (*tracedWrites, error) {
	g, err := readGraph(graphPath)
	if err != nil {
		return nil, err
	}
	m, err := eng.Maintain(g, vs)
	if err != nil {
		return nil, err
	}
	st, err := openStore(dir)
	if err != nil {
		return nil, err
	}
	t := &tracedWrites{eng: eng, maint: m, feed: gv.NewFeed(m), st: st, dir: dir}
	// Like the server's first publish: a checkpoint at write clock 0.
	if err := t.checkpoint(&tracer{}, -1, -1); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *tracedWrites) write(tr *tracer, req int32, srv *serve.Server, ups []gv.EdgeUpdate) error {
	rs := tr.begin("request", -1, req)
	s := tr.begin("serve.apply", rs, req)
	_, _, err := srv.ApplyUpdates(ups)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("store.append", rs, req)
	err = t.st.Append(ups)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("view.flush", rs, req)
	t.feed.Submit(ups...)
	t.feed.Flush()
	tr.end(s)
	tr.end(rs)
	return nil
}

func (t *tracedWrites) publish(tr *tracer, req int32, srv *serve.Server) error {
	rs := tr.begin("request", -1, req)
	s := tr.begin("serve.publish", rs, req)
	srv.Publish()
	tr.end(s)
	err := t.checkpoint(tr, rs, req)
	tr.end(rs)
	return err
}

// checkpoint is the standalone publish: freeze, extension clone and
// checkpoint, in serve's order.
func (t *tracedWrites) checkpoint(tr *tracer, parent, req int32) error {
	s := tr.begin("graph.freeze", parent, req)
	frozen, err := t.eng.Snapshot(t.maint.G)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("view.snapshot_exts", parent, req)
	exts := t.maint.SnapshotExtensions()
	tr.end(s)
	s = tr.begin("store.checkpoint", parent, req)
	err = t.st.Checkpoint(frozen, exts, t.maint.Version())
	tr.end(s)
	if err != nil {
		return err
	}
	cs := t.st.CheckpointStats()
	b, w, k := cs.BytesWritten.Load(), cs.ShardsWritten.Load(), cs.ShardsSkipped.Load()
	if tr.on {
		t.checkpoints++
		t.ckBytes += b - t.lastBytes
		t.shardsW += w - t.lastSW
		t.shardsS += k - t.lastSS
	}
	t.lastBytes, t.lastSW, t.lastSS = b, w, k
	return nil
}

// restart appends a fixed tail to the standalone store after a final
// checkpoint, then times store.Open on it and Server.Recover over it.
func (t *tracedWrites) restart(tr *tracer, req int32, tail []batch, vs *gv.ViewSet, cfg serve.Config) error {
	if err := t.checkpoint(&tracer{}, -1, -1); err != nil {
		return err
	}
	for _, b := range tail {
		if err := t.st.Append(b.ups); err != nil {
			return err
		}
	}
	if err := t.st.Close(); err != nil {
		return err
	}
	rs := tr.begin("request", -1, req)
	s := tr.begin("store.open", rs, req)
	st, err := openStore(t.dir)
	tr.end(s)
	if err != nil {
		return err
	}
	t.st = st // closed by the caller
	if len(st.Tail()) != len(tail) {
		return fmt.Errorf("traced restart: %d WAL records, want %d", len(st.Tail()), len(tail))
	}
	var g *gv.Graph
	switch b := st.Base().(type) {
	case *gv.Frozen:
		g = b.Thaw()
	case *gv.Sharded:
		g = b.Unshard().Thaw()
	default:
		return fmt.Errorf("traced restart: no checkpoint in %s", t.dir)
	}
	cfg.Store = st
	cfg.Logger = nil
	rsrv, err := serve.NewServer(g, vs, cfg)
	if err != nil {
		return err
	}
	defer rsrv.Close()
	s = tr.begin("serve.recover", rs, req)
	records, _ := rsrv.Recover()
	tr.end(s)
	tr.end(rs)
	if records != len(tail) {
		return fmt.Errorf("traced restart: replayed %d records, want %d", records, len(tail))
	}
	return nil
}

// report adds the write-side layer metrics of the durable workload.
func (t *tracedWrites) report(rep *report, p func(string, float64) time.Duration, c map[string]float64, updates int) {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	per := func(num, den string) float64 { return c[num] / max(c[den], 1) }
	ck := float64(max(t.checkpoints, 1))
	rep.addLayer("serve.apply_us.p50", us(p("serve.apply", 0.5)), "us", "write_p50_ms on mixed-durable")
	rep.addLayer("serve.apply_us.p99", us(p("serve.apply", 0.99)), "us", "write_p50_ms on mixed-durable")
	rep.addLayer("serve.publish_ms.p50", ms(p("serve.publish", 0.5)), "ms", "write_p99_ms, visible_p50_ms on mixed-durable")
	rep.addLayer("serve.publish_ms.server_mean", per("gvserve_publish_ns_total", "gvserve_publish_total")/1e6, "ms", "write_p99_ms, visible_p50_ms on mixed-durable")
	rep.addLayer("serve.recover_ms", ms(p("serve.recover", 0.5)), "ms", "restart_s on mixed-durable")
	rep.addLayer("view.flush_us.p50", us(p("view.flush", 0.5)), "us", "write_p50_ms on mixed-durable")
	rep.addLayer("view.maint_ns_per_batch", per("gvserve_maintenance_ns_total", "gvserve_maintenance_batches_total"), "ns", "write_p50_ms on mixed-durable")
	rep.addLayer("view.delta_per_batch", per("gvserve_maintenance_delta_total", "gvserve_maintenance_batches_total"), "count", "view.flush_us on mixed-durable")
	rep.addLayer("view.recompute_per_batch", per("gvserve_maintenance_recompute_total", "gvserve_maintenance_batches_total"), "count", "view.flush_us on mixed-durable")
	rep.addLayer("view.skip_per_batch", per("gvserve_maintenance_skip_total", "gvserve_maintenance_batches_total"), "count", "view.flush_us on mixed-durable")
	rep.addLayer("view.affected_pairs_per_batch", per("gvserve_maintenance_affected_pairs_total", "gvserve_maintenance_batches_total"), "pairs", "view.flush_us on mixed-durable")
	rep.addLayer("view.coalesced_frac", c["gvserve_maintenance_coalesced_total"]/float64(max(updates, 1)), "ratio", "view.flush_us on mixed-durable")
	rep.addLayer("view.snapshot_exts_us.p50", us(p("view.snapshot_exts", 0.5)), "us", "serve.publish_ms on mixed-durable")
	rep.addLayer("graph.freeze_ms.p50", ms(p("graph.freeze", 0.5)), "ms", "serve.publish_ms -> write_p99_ms, visible_p50_ms on mixed-durable")
	rep.addLayer("store.append_us.p50", us(p("store.append", 0.5)), "us", "write_p50_ms on mixed-durable")
	rep.addLayer("store.append_us.p99", us(p("store.append", 0.99)), "us", "write_p50_ms on mixed-durable")
	rep.addLayer("store.fsync_per_record", per("gvserve_wal_fsync_total", "gvserve_wal_appended_records_total"), "count", "write_p50_ms on mixed-durable")
	rep.addLayer("store.wal_bytes_per_update", c["gvserve_wal_appended_bytes_total"]/float64(max(updates, 1)), "bytes", "write_p50_ms, restart_s on mixed-durable")
	rep.addLayer("store.checkpoint_ms.p50", ms(p("store.checkpoint", 0.5)), "ms", "serve.publish_ms -> write_p99_ms on mixed-durable")
	rep.addLayer("store.checkpoint_ms.server_mean", per("gvserve_checkpoint_ns_total", "gvserve_checkpoint_total")/1e6, "ms", "serve.publish_ms -> write_p99_ms on mixed-durable")
	rep.addLayer("store.checkpoint_bytes", float64(t.ckBytes)/ck, "bytes", "store.checkpoint_ms on mixed-durable")
	rep.addLayer("store.shards_written", float64(t.shardsW)/ck, "count", "store.checkpoint_ms on mixed-durable")
	rep.addLayer("store.shards_skipped", float64(t.shardsS)/ck, "count", "store.checkpoint_ms on mixed-durable")
	rep.addLayer("store.open_ms", ms(p("store.open", 0.5)), "ms", "restart_s on mixed-durable")
}

// durationsByName groups span durations by span name.
func durationsByName(spans []span) map[string][]time.Duration {
	m := map[string][]time.Duration{}
	for _, s := range spans {
		m[s.Name] = append(m[s.Name], s.dur())
	}
	return m
}

// selfTimes is, for every span of the name, its duration minus the time
// its children cover.
func selfTimes(spans []span, name string) []time.Duration {
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	var out []time.Duration
	for i, s := range spans {
		if s.Name == name {
			out = append(out, s.dur()-child[i])
		}
	}
	return out
}

// handlerSelf is, per query request, the handler's time less the parse
// and answer calls it makes: decode, middleware, flattening and encode.
func handlerSelf(spans []span) []time.Duration {
	type parts struct{ handler, parse, answer time.Duration }
	byReq := map[int32]*parts{}
	for _, s := range spans {
		p := byReq[s.Req]
		if p == nil {
			p = &parts{}
			byReq[s.Req] = p
		}
		switch s.Name {
		case "serve.handler":
			p.handler = s.dur()
		case "pattern.parse":
			p.parse = s.dur()
		case "core.answer":
			p.answer = s.dur()
		}
	}
	var out []time.Duration
	for _, p := range byReq {
		if p.handler > 0 {
			out = append(out, p.handler-p.parse-p.answer)
		}
	}
	return out
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readGraph(path string) (*gv.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return gv.ReadGraph(bufio.NewReader(f))
}

// readViews parses the views file the way gvserve does.
func readViews(path string) (*gv.ViewSet, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ps, err := gv.ParsePatterns(string(src))
	if err != nil {
		return nil, err
	}
	defs := make([]*gv.ViewDefinition, len(ps))
	for i, p := range ps {
		defs[i] = gv.Define("", p)
	}
	return gv.NewViewSet(defs...), nil
}

func openStore(dir string) (*store.Store, error) {
	return store.Open(dir, store.Options{Sync: store.SyncPolicy{Mode: store.SyncAlways}})
}
