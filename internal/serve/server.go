// Package serve is the snapshot-swap query service behind cmd/gvserve:
// a long-lived HTTP front end where every read runs against one shared
// immutable snapshot (graph + materialized view extensions) reached
// through an atomic pointer, while writes accumulate in incrementally
// maintained views and a publish step — explicit, timer-driven or
// write-threshold-driven — swaps in a freshly frozen snapshot.
//
// The concurrency design is RCU/epoch-style publication:
//
//   - Readers do s.cur.Load() exactly once per request and evaluate
//     entirely against that *Snapshot. They never take a lock, never
//     block a writer, and can never observe a half-published state: the
//     snapshot's graph is a *Frozen/*Sharded CSR (immutable by
//     construction) and its extensions are an immutable clone taken
//     under the write lock (Maintained.SnapshotExtensions).
//   - Writers serialize on one mutex: edge updates refresh the
//     maintained views in place, and publishing freezes the mutable
//     graph (Engine.Snapshot), clones the extension list, bumps the
//     epoch and atomically stores the new *Snapshot. Old snapshots stay
//     valid for requests still holding them and are reclaimed by GC —
//     the garbage collector is the epoch reclamation scheme.
//
// Queries answered from views (/query) never touch the graph at all —
// the materialized extensions are the serving dataset, which is the
// paper's thesis operationalized: cache V(G), answer Q from V(G) alone.
package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	gv "graphviews"
	"graphviews/internal/store"
)

// Config parameterizes a Server. The zero value serves with GOMAXPROCS
// workers, no sharding, no admission bound, no request timeout and
// explicit-only publishing.
type Config struct {
	// Workers bounds the engine worker pool (<= 0 selects GOMAXPROCS).
	Workers int
	// Shards configures hash-partitioned snapshots: >= 2 fixed shard
	// count, 0 or negative the engine's auto heuristic, 1 unsharded.
	Shards int
	// MaxInFlight bounds the number of requests concurrently admitted
	// into handlers; excess requests are shed with 429. <= 0 disables
	// admission control.
	MaxInFlight int
	// RequestTimeout is the per-request deadline attached to the request
	// context; engine calls observe it between work items. <= 0 disables.
	RequestTimeout time.Duration
	// PublishEvery republishes the snapshot on a timer whenever updates
	// are pending. <= 0 disables timer-driven publishing.
	PublishEvery time.Duration
	// PublishAfter publishes as soon as at least this many effective
	// updates accumulated since the live snapshot. <= 0 disables
	// threshold-driven publishing. Buffered (not yet flushed) feed
	// deltas count toward the threshold.
	PublishAfter int
	// FlushAfter buffers incoming edge updates in a coalescing change
	// feed and only propagates them into the maintained views once the
	// coalesced backlog reaches this many deltas (insert+delete of the
	// same edge cancels before any view sees it). <= 0 flushes on every
	// update batch. Publishing always flushes first, so snapshots never
	// miss buffered deltas.
	FlushAfter int
	// Rematerialize switches view maintenance to the full-recompute
	// baseline (every relevant update rebuilds the view from scratch).
	// Serving answers are identical; this exists to measure what the
	// delta-propagation path saves.
	Rematerialize bool
	// Store is the durable graph + view store backing this server: every
	// update batch is appended to its write-ahead log before the write
	// is acknowledged, and every published snapshot is checkpointed into
	// it (compacting the WAL). When the store was opened with a non-empty
	// WAL tail, the server boots in the recovering state — /healthz
	// reports 503 and application routes shed with 503 + Retry-After —
	// until Recover has replayed the tail. nil serves ephemeral (updates
	// are lost on restart), matching the pre-durability behavior.
	Store *store.Store
	// PersistExtensions includes the materialized view extensions in
	// every checkpoint, under the snapshot's write clock. A restart then
	// restores graph + extensions together and skips the initial
	// rematerialization entirely (MaintStats.Recomputes stays 0 on a
	// clean-tail boot); when the stored extensions do not match the
	// configured view set — renamed views, edited patterns — boot falls
	// back to materializing from scratch. Requires Store.
	PersistExtensions bool
	// WALBacklogBytes is the write-ahead-log high-water mark: when every
	// checkpoint fails (disk trouble), nothing else bounds WAL growth, so
	// once the log exceeds this many bytes /healthz flips to degraded and
	// the gvserve_wal_backlog_bytes gauge goes positive — the operator
	// sees the runaway before the disk fills. <= 0 disables the mark.
	WALBacklogBytes int64
	// Logger receives one access-log line per request; nil disables
	// access logging.
	Logger *log.Logger
}

// Snapshot is one published epoch: an immutable graph backend plus the
// view extensions materialized over exactly that graph state. All
// fields are read-only after publication; any number of requests may
// evaluate against one Snapshot concurrently with zero synchronization.
type Snapshot struct {
	// Epoch numbers publications from 1, monotonically.
	Epoch uint64
	// Version is the maintained write clock captured at publication:
	// this snapshot reflects exactly the first Version effective updates.
	Version uint64
	// Graph is the frozen (or sharded) CSR backend.
	Graph gv.GraphReader
	// Exts are the materialized extensions consistent with Graph.
	Exts *gv.Extensions
	// PublishedAt timestamps the swap.
	PublishedAt time.Time
}

// routes instrumented by the metrics registry, in display order.
var routeNames = []string{
	"/query", "/match", "/update", "/publish", "/snapshot", "/healthz", "/metrics",
}

// Server is the snapshot-swap query service. Create with NewServer,
// expose via Handler, stop background publishing with Close.
type Server struct {
	cfg Config
	eng *gv.Engine

	cur atomic.Pointer[Snapshot]

	// mu serializes the write side: edge updates into the maintained
	// views, feed flushes and snapshot publication. The read side never
	// touches it. (Feed.Submit and Feed.Backlog are internally
	// synchronized; only Flush requires mu.)
	mu    sync.Mutex
	maint *gv.Maintained
	feed  *gv.Feed

	// store is the durable backing store (nil when ephemeral); set once
	// in NewServer. recovering is true from boot until Recover finishes
	// replaying the WAL tail; application routes shed while it is set.
	store      *store.Store
	recovering atomic.Bool

	metrics *Metrics
	sem     chan struct{}

	kick      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewServer materializes vs over g, publishes the first snapshot
// (epoch 1) and starts the background publisher when timer- or
// threshold-driven publishing is configured. The graph must not be
// mutated by the caller afterwards: all subsequent writes go through
// the server's update path.
func NewServer(g *gv.Graph, vs *gv.ViewSet, cfg Config) (*Server, error) {
	if err := vs.Validate(); err != nil {
		return nil, err
	}
	eng := gv.NewEngine(gv.WithParallelism(cfg.Workers), gv.WithShards(cfg.Shards))
	// Persisted extensions: when the store's checkpoint carries view
	// extensions matching this view set — and the caller handed us the
	// thawed checkpoint graph, which the shape check cross-checks — adopt
	// them instead of rematerializing. The WAL tail (if any) is replayed
	// through delta propagation by Recover, so a clean-tail boot performs
	// zero recomputes.
	var maint *gv.Maintained
	restored := false
	if cfg.Store != nil && cfg.PersistExtensions {
		if base := cfg.Store.Base(); base != nil &&
			g.NumNodes() == base.NumNodes() && g.NumEdges() == base.NumEdges() {
			if x, ok := cfg.Store.BaseExtensions(vs); ok {
				maint = eng.MaintainFrom(g, x)
				restored = true
			}
		}
	}
	if maint == nil {
		var err error
		maint, err = eng.Maintain(g, vs)
		if err != nil {
			return nil, err
		}
	}
	if cfg.Rematerialize {
		maint.SetForceRematerialize(true)
	}
	s := &Server{
		cfg:     cfg,
		eng:     eng,
		maint:   maint,
		feed:    gv.NewFeed(maint),
		store:   cfg.Store,
		metrics: newMetrics(routeNames),
		kick:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	if cfg.MaxInFlight > 0 {
		s.sem = make(chan struct{}, cfg.MaxInFlight)
	}
	if s.store != nil {
		s.metrics.store = s.store
		s.metrics.walBacklogLimit = cfg.WALBacklogBytes
		if restored {
			s.metrics.recoveryRematSkipped.Store(1)
		}
		s.store.SetFsyncObserver(s.metrics.walFsync.observe)
		// A non-empty WAL tail means this is a restart after a crash (or
		// an unclean shutdown): boot not-ready and let Recover replay the
		// tail before the first checkpoint. A clean boot checkpoints the
		// freshly loaded state right away (in the first publish below).
		if len(s.store.Tail()) > 0 {
			s.recovering.Store(true)
			s.metrics.recoveryState.Store(1)
		}
	}
	s.mu.Lock()
	s.publishLocked()
	s.mu.Unlock()
	// The publish hook is the write-side trigger: it keeps the write
	// clock gauge fresh and kicks the publisher goroutine once the
	// pending backlog crosses the threshold. It runs on the updating
	// goroutine (under s.mu), so it only signals — the publisher
	// goroutine takes the lock itself. Registered after the first
	// publish, so s.cur is always non-nil when the hook fires.
	maint.SetPublishHook(func(version uint64) {
		s.metrics.version.Store(version)
		if cfg.PublishAfter > 0 && version-s.cur.Load().Version >= uint64(cfg.PublishAfter) {
			select {
			case s.kick <- struct{}{}:
			default:
			}
		}
	})
	if cfg.PublishEvery > 0 || cfg.PublishAfter > 0 {
		s.wg.Add(1)
		go s.publisher()
	}
	return s, nil
}

// Close stops the background publisher. It does not drain in-flight
// HTTP requests — that is the http.Server's shutdown job.
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.done) })
	s.wg.Wait()
}

// Current returns the live snapshot. Never nil after NewServer.
func (s *Server) Current() *Snapshot { return s.cur.Load() }

// Pending reports how many updates the live snapshot does not yet
// reflect: committed-but-unpublished effective updates plus coalesced
// deltas still buffered in the change feed.
func (s *Server) Pending() uint64 {
	return uint64(s.feed.Backlog()) + s.maint.Version() - s.cur.Load().Version
}

// Metrics exposes the instrument registry (for tests and load drivers).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Publish freezes the current maintained state into a new immutable
// snapshot and atomically swaps it in. Concurrent queries keep reading
// whichever snapshot they already hold; queries admitted after the swap
// read the new one.
func (s *Server) Publish() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.publishLocked()
}

// publishLocked builds and swaps the snapshot; the caller holds s.mu.
// Buffered feed deltas are flushed first, so a snapshot always reflects
// every update submitted before the publish.
func (s *Server) publishLocked() *Snapshot {
	start := time.Now()
	if s.feed.Backlog() > 0 {
		s.flushFeedLocked()
	}
	// Engine ctx is Background, so Snapshot cannot fail here; the guard
	// keeps the invariant visible if a cancellable engine ever arrives.
	frozen, err := s.eng.Snapshot(s.maint.G)
	if err != nil {
		panic("serve: snapshot build failed: " + err.Error())
	}
	prev := s.cur.Load()
	var epoch uint64 = 1
	if prev != nil {
		epoch = prev.Epoch + 1
	}
	snap := &Snapshot{
		Epoch:       epoch,
		Version:     s.maint.Version(),
		Graph:       frozen,
		Exts:        s.maint.SnapshotExtensions(),
		PublishedAt: time.Now(),
	}
	s.cur.Store(snap)
	s.metrics.epoch.Store(snap.Epoch)
	s.metrics.published.Store(snap.Version)
	s.metrics.snapshotPair.Store(int64(snap.Exts.TotalEdges()))
	s.metrics.snapshotSize.Store(int64(frozen.Size()))
	s.metrics.publishes.Add(1)
	s.metrics.publishNs.Add(int64(time.Since(start)))
	// While recovering the WAL tail is still the source of truth;
	// Recover checkpoints the fully replayed state itself.
	if !s.recovering.Load() {
		s.checkpointLocked(snap)
	}
	return snap
}

// checkpointLocked writes the just-published snapshot into the durable
// store, compacting the WAL: every logged record is reflected in the
// snapshot because publishLocked flushes the feed first. A no-op when
// the server runs ephemeral. A checkpoint failure is logged and counted
// but never fatal — the previous checkpoint plus the full WAL still
// recover this state.
func (s *Server) checkpointLocked(snap *Snapshot) {
	if s.store == nil {
		return
	}
	start := time.Now()
	var exts *gv.Extensions
	if s.cfg.PersistExtensions {
		exts = snap.Exts
	}
	if err := s.store.Checkpoint(snap.Graph, exts, snap.Version); err != nil {
		s.metrics.checkpointErrors.Add(1)
		if s.cfg.Logger != nil {
			s.cfg.Logger.Printf("checkpoint failed (state still recoverable from previous checkpoint + WAL): %v", err)
		}
		return
	}
	s.metrics.checkpoints.Add(1)
	s.metrics.checkpointNs.Add(int64(time.Since(start)))
}

// Recover replays the store's WAL tail through the coalescing feed and
// delta propagation into the maintained views, then publishes and
// checkpoints the recovered state, and only then opens the application
// routes: once /healthz reports ready, every route serves the replayed
// epoch and the WAL is compacted.
// It returns the number of WAL records and edge updates replayed.
// No-op unless the server booted recovering. Updates whose node ids are
// out of range for the loaded graph — a WAL paired with the wrong
// checkpoint — are dropped and counted rather than panicking the boot.
func (s *Server) Recover() (records, updates int) {
	if s.store == nil || !s.recovering.Load() {
		return 0, 0
	}
	start := time.Now()
	var dropped int
	n := gv.NodeID(s.maint.G.NumNodes())
	for _, batch := range s.store.Tail() {
		records++
		in := batch[:0:0]
		for _, up := range batch {
			if up.From >= 0 && up.From < n && up.To >= 0 && up.To < n {
				in = append(in, up)
			} else {
				dropped++
			}
		}
		s.mu.Lock()
		s.feed.Submit(in...)
		s.flushFeedLocked()
		s.mu.Unlock()
		updates += len(in)
	}
	s.metrics.recoveryRecords.Store(int64(records))
	s.metrics.recoveryUpdates.Store(int64(updates))
	s.metrics.recoveryDropped.Store(int64(dropped))
	s.metrics.recoveryNs.Store(int64(time.Since(start)))
	s.mu.Lock()
	s.checkpointLocked(s.publishLocked())
	s.recovering.Store(false)
	s.metrics.recoveryState.Store(0)
	s.mu.Unlock()
	return records, updates
}

// Recovering reports whether the server is still replaying its WAL
// tail (application routes shed with 503 while true).
func (s *Server) Recovering() bool { return s.recovering.Load() }

// publisher is the background goroutine driving timer- and
// threshold-based publication. It republishes only when updates are
// pending — an idle server keeps its epoch stable.
func (s *Server) publisher() {
	defer s.wg.Done()
	var tick <-chan time.Time
	if s.cfg.PublishEvery > 0 {
		t := time.NewTicker(s.cfg.PublishEvery)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-s.done:
			return
		case <-tick:
			if s.Pending() > 0 {
				s.Publish()
			}
		case <-s.kick:
			if s.cfg.PublishAfter > 0 && s.Pending() >= uint64(s.cfg.PublishAfter) {
				s.Publish()
			}
		}
	}
}

// ApplyUpdates appends the batch to the write-ahead log (when a store
// backs the server), then submits it to the coalescing change feed and,
// when FlushAfter is disabled or the coalesced backlog reached it,
// flushes the feed into the maintained views. It returns the number of
// updates that changed the graph in this call (0 while buffering) and
// the write clock. The ack contract is append-before-apply: if the WAL
// append fails, the batch is NOT applied in memory — the error returns
// with the in-memory and durable states still in agreement, and the
// caller rejects the write. It never publishes by itself, but buffered
// deltas count toward the PublishAfter threshold.
func (s *Server) ApplyUpdates(updates []gv.EdgeUpdate) (applied int, version uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.store != nil {
		if err := s.store.Append(updates); err != nil {
			return 0, s.maint.Version(), err
		}
	}
	backlog := s.feed.Submit(updates...)
	if s.cfg.FlushAfter <= 0 || backlog >= s.cfg.FlushAfter {
		applied = s.flushFeedLocked()
	} else {
		s.metrics.feedBacklog.Store(int64(backlog))
		// The publish hook only fires on flush; while buffering, the
		// threshold check on total pending deltas lives here.
		if s.cfg.PublishAfter > 0 && s.pendingLocked() >= uint64(s.cfg.PublishAfter) {
			select {
			case s.kick <- struct{}{}:
			default:
			}
		}
	}
	return applied, s.maint.Version(), nil
}

// flushFeedLocked drains the change feed into the maintained views and
// refreshes the maintenance metrics; the caller holds s.mu.
func (s *Server) flushFeedLocked() int {
	applied := s.feed.Flush()
	s.metrics.updates.Add(int64(applied))
	s.metrics.feedBacklog.Store(0)
	s.syncMaintMetricsLocked()
	return applied
}

// pendingLocked is Pending for callers already holding s.mu.
func (s *Server) pendingLocked() uint64 {
	return uint64(s.feed.Backlog()) + s.maint.Version() - s.cur.Load().Version
}

// syncMaintMetricsLocked copies the maintenance counters (owned by the
// write side, guarded by s.mu) into the lock-free metrics registry so
// /metrics can render them without touching the write lock.
func (s *Server) syncMaintMetricsLocked() {
	st := s.maint.Stats
	s.metrics.maintRecomputes.Store(int64(st.Recomputes))
	s.metrics.maintDeltaProps.Store(int64(st.DeltaProps))
	s.metrics.maintSkips.Store(int64(st.Skips))
	s.metrics.maintCoalesced.Store(int64(st.CoalescedAway))
	s.metrics.maintAffected.Store(int64(st.AffectedPairs))
	s.metrics.maintBatches.Store(int64(st.Batches))
	s.metrics.maintPropagateNs.Store(st.PropagateNs)
}

// Handler returns the server's HTTP handler with the full middleware
// stack composed per route: access logging → metrics → admission
// control → request timeout → handler. /healthz and /metrics skip
// admission control and the timeout so the server stays observable
// under overload.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	app := func(route string, h http.HandlerFunc) {
		mux.Handle(route, s.instrument(route, s.withReady(withAdmission(withTimeout(h, s.cfg.RequestTimeout), s.sem, s.metrics))))
	}
	ops := func(route string, h http.HandlerFunc) {
		mux.Handle(route, s.instrument(route, h))
	}
	app("/query", s.handleQuery)
	app("/match", s.handleMatch)
	app("/update", s.handleUpdate)
	app("/publish", s.handlePublish)
	ops("/snapshot", s.handleSnapshot)
	ops("/healthz", s.handleHealthz)
	ops("/metrics", s.handleMetrics)
	return mux
}

// withReady sheds application requests with 503 + Retry-After while the
// server is replaying its WAL tail. /snapshot, /healthz and /metrics
// bypass it so the recovery is observable.
func (s *Server) withReady(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.recovering.Load() {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "recovering: replaying the write-ahead log")
			return
		}
		h.ServeHTTP(w, r)
	})
}

// instrument wraps a route in the logging and metrics middleware.
// Routes that note the epoch they served (noteEpoch) are logged with
// it; the rest with the epoch live when they finish.
func (s *Server) instrument(route string, h http.Handler) http.Handler {
	return withLogging(withMetrics(h, s.metrics, route), s.cfg.Logger, func() uint64 {
		return s.cur.Load().Epoch
	})
}

// maxBodyBytes bounds request bodies (patterns and update batches).
const maxBodyBytes = 1 << 20

// handleQuery answers a pattern query from the live snapshot's
// materialized extensions only (the paper's MatchJoin/Answer), guided
// by the ?strategy= view-selection strategy. The snapshot pointer is
// loaded exactly once; everything below reads that epoch.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q, ok := s.readPattern(w, r)
	if !ok {
		return
	}
	strategy, ok := parseStrategy(w, r)
	if !ok {
		return
	}
	limit, ok := parsePairLimit(w, r)
	if !ok {
		return
	}
	snap := s.cur.Load()
	noteEpoch(r, snap.Epoch)
	start := time.Now()
	res, used, _, err := s.eng.WithRequest(r.Context()).Answer(q, snap.Exts, strategy)
	if err != nil {
		s.queryError(w, r, err)
		return
	}
	elapsed := time.Since(start).Microseconds()
	var views []string
	for _, i := range used {
		views = append(views, snap.Exts.Set.Defs[i].Name)
	}
	writeAnswer(w, snap.Epoch, res, views, elapsed, limit)
}

// handleMatch evaluates a pattern directly over the snapshot graph
// (?mode=sim|dual|strong), bypassing the views — the baseline the
// paper compares against, useful for spot-checking served answers.
// Direct matching has no mid-flight cancellation points; the request
// timeout only gates admission to it.
func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	q, ok := s.readPattern(w, r)
	if !ok {
		return
	}
	limit, ok := parsePairLimit(w, r)
	if !ok {
		return
	}
	snap := s.cur.Load()
	noteEpoch(r, snap.Epoch)
	start := time.Now()
	var res *gv.Result
	switch mode := r.URL.Query().Get("mode"); mode {
	case "", "sim":
		res = gv.Match(snap.Graph, q)
	case "dual":
		res = gv.MatchDual(snap.Graph, q)
	case "strong":
		res = gv.MatchStrong(snap.Graph, q)
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown mode %q (want sim, dual or strong)", mode))
		return
	}
	writeAnswer(w, snap.Epoch, res, nil, time.Since(start).Microseconds(), limit)
}

// updateResponse is the JSON shape of /update and /publish results.
type updateResponse struct {
	Applied  int    `json:"applied"`
	Buffered int    `json:"buffered,omitempty"`
	Version  uint64 `json:"version"`
	Pending  uint64 `json:"pending"`
	Epoch    uint64 `json:"epoch"`
}

// handleUpdate applies a batch of edge updates (text body, one
// `add <u> <v>` or `del <u> <v>` per line) to the maintained views.
// The updates become visible to queries only at the next publish —
// pass ?publish=1 to swap immediately.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	updates, err := parseUpdates(io.LimitReader(r.Body, maxBodyBytes), s.maint.G.NumNodes())
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	applied, version, err := s.ApplyUpdates(updates)
	if err != nil {
		// Distinct body: the batch reached neither the log nor memory —
		// the client must retry, nothing diverged.
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"error":  "write-ahead log append failed: " + err.Error(),
			"reason": "wal_append_failed",
		})
		return
	}
	if r.URL.Query().Get("publish") == "1" {
		s.Publish()
	}
	snap := s.cur.Load()
	writeJSON(w, http.StatusOK, &updateResponse{
		Applied:  applied,
		Buffered: s.feed.Backlog(),
		Version:  version,
		Pending:  s.Pending(),
		Epoch:    snap.Epoch,
	})
}

// handlePublish swaps in a fresh snapshot of the maintained state.
func (s *Server) handlePublish(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	snap := s.Publish()
	writeJSON(w, http.StatusOK, snapshotInfo(snap, s.maint.Version()))
}

// handleSnapshot describes the live snapshot.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, snapshotInfo(s.cur.Load(), s.maint.Version()))
}

// handleHealthz is the liveness and readiness probe: 503 "recovering"
// while the WAL tail is replaying, 503 "degraded" while the WAL has
// grown past the configured high-water mark (checkpoints failing — the
// server still answers, but the operator must act before the disk
// fills), 200 "ok" otherwise.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	epoch := s.cur.Load().Epoch
	if s.recovering.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "recovering", "epoch": epoch})
		return
	}
	if s.walBacklogged() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "degraded", "reason": "wal_backlog",
			"wal_bytes": s.store.WALSize(), "limit_bytes": s.cfg.WALBacklogBytes,
			"epoch": epoch,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "epoch": epoch})
}

// walBacklogged reports whether the WAL has outgrown the configured
// high-water mark (WALBacklogBytes).
func (s *Server) walBacklogged() bool {
	return s.store != nil && s.cfg.WALBacklogBytes > 0 && s.store.WALSize() >= s.cfg.WALBacklogBytes
}

// handleMetrics renders the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WriteText(w)
}

// snapshotJSON is the JSON shape of /snapshot and /publish.
type snapshotJSON struct {
	Epoch       uint64 `json:"epoch"`
	Version     uint64 `json:"version"`
	Pending     uint64 `json:"pending"`
	Backend     string `json:"backend"`
	Nodes       int    `json:"nodes"`
	Edges       int    `json:"edges"`
	Views       int    `json:"views"`
	Pairs       int    `json:"pairs"`
	PublishedAt string `json:"published_at"`
}

// snapshotInfo projects a snapshot into its JSON description.
func snapshotInfo(snap *Snapshot, version uint64) *snapshotJSON {
	backend := "frozen"
	if _, ok := snap.Graph.(*gv.Sharded); ok {
		backend = "sharded"
	}
	return &snapshotJSON{
		Epoch:       snap.Epoch,
		Version:     snap.Version,
		Pending:     version - snap.Version,
		Backend:     backend,
		Nodes:       snap.Graph.NumNodes(),
		Edges:       snap.Graph.NumEdges(),
		Views:       snap.Exts.Set.Card(),
		Pairs:       snap.Exts.TotalEdges(),
		PublishedAt: snap.PublishedAt.UTC().Format(time.RFC3339Nano),
	}
}

// readPattern reads and validates the pattern DSL request body,
// writing the error response itself when it returns ok=false.
func (s *Server) readPattern(w http.ResponseWriter, r *http.Request) (*gv.Pattern, bool) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST a pattern in the DSL")
		return nil, false
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return nil, false
	}
	q, err := gv.ParsePattern(string(body))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return nil, false
	}
	if err := q.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return nil, false
	}
	return q, true
}

// parseStrategy resolves ?strategy= (default minimal), writing the
// error response itself when it returns ok=false.
func parseStrategy(w http.ResponseWriter, r *http.Request) (gv.Strategy, bool) {
	switch v := r.URL.Query().Get("strategy"); v {
	case "", "minimal":
		return gv.UseMinimal, true
	case "all":
		return gv.UseAll, true
	case "minimum":
		return gv.UseMinimum, true
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown strategy %q (want all, minimal or minimum)", v))
		return 0, false
	}
}

// queryError maps an Answer error to its HTTP status: not-contained is
// the client's problem (the views cannot answer this query, 422), a
// dead request context is overload/timeout (503).
func (s *Server) queryError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, gv.ErrNotContained):
		writeError(w, http.StatusUnprocessableEntity, err.Error())
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// parsePairLimit resolves ?pairs= and ?limit= before any evaluation runs,
// writing the error response itself when it returns ok=false. The limit
// is noPairs unless ?pairs=1; otherwise ?limit= pairs per edge (default
// 100, 0 = unlimited). A malformed or negative ?limit= is a 400 whether
// or not pairs were requested.
func parsePairLimit(w http.ResponseWriter, r *http.Request) (int, bool) {
	params := r.URL.Query()
	limit := 100
	if v := params.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad limit %q (want a non-negative integer, 0 = unlimited)", v))
			return 0, false
		}
		limit = n
	}
	if params.Get("pairs") != "1" {
		return noPairs, true
	}
	return limit, true
}

// parseUpdates parses the /update body: one `add <u> <v>` or
// `del <u> <v>` per line, blank lines and #-comments ignored. Node ids
// must be in [0, numNodes) — the graph's node set is fixed at load
// time, so an out-of-range id is a client error, not a new node.
func parseUpdates(r io.Reader, numNodes int) ([]gv.EdgeUpdate, error) {
	var updates []gv.EdgeUpdate
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("line %d: want `add <u> <v>` or `del <u> <v>`", lineNo)
		}
		var del bool
		switch fields[0] {
		case "add":
		case "del":
			del = true
		default:
			return nil, fmt.Errorf("line %d: unknown op %q (want add or del)", lineNo, fields[0])
		}
		u, err1 := strconv.Atoi(fields[1])
		v, err2 := strconv.Atoi(fields[2])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("line %d: bad node ids", lineNo)
		}
		if u < 0 || u >= numNodes || v < 0 || v >= numNodes {
			return nil, fmt.Errorf("line %d: node id out of range [0,%d)", lineNo, numNodes)
		}
		updates = append(updates, gv.EdgeUpdate{From: gv.NodeID(u), To: gv.NodeID(v), Delete: del})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return updates, nil
}

// writeJSON writes a JSON response body. /query and /match answers go
// through writeAnswer instead.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeError writes a JSON error body.
func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
