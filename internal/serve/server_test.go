package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	gv "graphviews"
)

// testWorkload builds a tiny two-label workload whose answer size
// changes deterministically per update: view V (and query Q) match the
// A→B edges, so every add/del of an A→B edge moves |Q(G)| by one.
func testWorkload(t *testing.T) (*gv.Graph, *gv.ViewSet, string) {
	t.Helper()
	g := gv.NewGraph()
	for i := 0; i < 4; i++ {
		g.AddNode("A")
	}
	for i := 0; i < 4; i++ {
		g.AddNode("B")
	}
	g.AddEdge(0, 4) // a0 -> b0
	v, err := gv.ParsePattern("pattern V {\n node a: A\n node b: B\n edge a -> b\n}")
	if err != nil {
		t.Fatal(err)
	}
	vs := gv.NewViewSet(gv.Define("V", v))
	q := "pattern Q {\n node a: A\n node b: B\n edge a -> b\n}"
	return g, vs, q
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, string) {
	t.Helper()
	g, vs, q := testWorkload(t)
	s, err := NewServer(g, vs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs, q
}

// postQuery sends a pattern and decodes the response.
func postQuery(t *testing.T, url, body string, want int) *queryResponse {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		t.Fatalf("status = %d, want %d", resp.StatusCode, want)
	}
	if want != http.StatusOK {
		return nil
	}
	var qr queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	return &qr
}

// TestPublishSwapConsistency is the acceptance stress test of the
// RCU-style snapshot swap: query goroutines hammer /query while a
// writer applies updates and publishes ≥3 fresh snapshots. Every
// response must be internally consistent with exactly one snapshot
// epoch — its (epoch, matched, size, pairs) must equal the answer
// recomputed offline from the retained snapshot of that epoch. Run
// under -race this also proves the read path takes no lock and shares
// no mutable state with the publisher.
func TestPublishSwapConsistency(t *testing.T) {
	s, hs, q := newTestServer(t, Config{Workers: 2})
	qURL := hs.URL + "/query?pairs=1&limit=0"

	// The writer's script: each step changes |Q(G)| by one, so
	// consecutive epochs have pairwise different answers and a torn or
	// mixed read cannot masquerade as a valid one.
	steps := []string{
		"add 1 5", // epoch 2: {a0b0, a1b1}
		"add 2 6", // epoch 3: {a0b0, a1b1, a2b6}
		"del 0 4", // epoch 4: {a1b1, a2b6}
		"add 3 7", // epoch 5: 3 pairs
	}

	snaps := map[uint64]*Snapshot{s.Current().Epoch: s.Current()}
	var snapMu sync.Mutex

	stop := make(chan struct{})
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		defer close(stop)
		for _, step := range steps {
			resp, err := http.Post(hs.URL+"/update", "text/plain", strings.NewReader(step))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			snap := s.Publish()
			snapMu.Lock()
			snaps[snap.Epoch] = snap
			snapMu.Unlock()
			time.Sleep(2 * time.Millisecond) // let readers see each epoch
		}
	}()

	type obs struct {
		epoch uint64
		size  int
		pairs string
	}
	const readers = 8
	results := make([][]obs, readers)
	var readerWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		r := r
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				qr := postQuery(t, qURL, q, http.StatusOK)
				results[r] = append(results[r], obs{qr.Epoch, qr.Size, fmt.Sprint(qr.Edges)})
			}
		}()
	}
	writerWG.Wait()
	readerWG.Wait()

	// One more read after the last publish must see the final epoch.
	final := postQuery(t, qURL, q, http.StatusOK)
	if want := s.Current().Epoch; final.Epoch != want {
		t.Fatalf("post-publish read: epoch = %d, want %d", final.Epoch, want)
	}
	if len(snaps) < 4 {
		t.Fatalf("only %d snapshots published, want ≥ 4", len(snaps))
	}

	// Recompute each epoch's ground-truth answer from its retained
	// immutable snapshot and check every observation against it.
	pq, err := gv.ParsePattern(q)
	if err != nil {
		t.Fatal(err)
	}
	expect := map[uint64]obs{}
	for epoch, snap := range snaps {
		res, _, err := gv.Answer(pq, snap.Exts, gv.UseMinimal)
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		want := &queryResponse{}
		req := httptest.NewRequest(http.MethodGet, "/?pairs=1&limit=0", nil)
		attachPairs(want, res, req)
		expect[epoch] = obs{epoch, res.Size(), fmt.Sprint(want.Edges)}
	}
	checked := 0
	epochsSeen := map[uint64]bool{}
	for r := range results {
		for _, o := range results[r] {
			want, ok := expect[o.epoch]
			if !ok {
				t.Fatalf("response claims unknown epoch %d", o.epoch)
			}
			if o.size != want.size || o.pairs != want.pairs {
				t.Fatalf("epoch %d: response (size=%d pairs=%s) inconsistent with snapshot (size=%d pairs=%s)",
					o.epoch, o.size, o.pairs, want.size, want.pairs)
			}
			epochsSeen[o.epoch] = true
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no reader observations")
	}
	t.Logf("checked %d responses across %d observed epochs (%d published)", checked, len(epochsSeen), len(snaps))
}

// TestUpdatePublishFlow walks the write path end to end over HTTP:
// updates are invisible until published, ?publish=1 swaps immediately,
// and the snapshot/pending bookkeeping tracks the write clock.
func TestUpdatePublishFlow(t *testing.T) {
	s, hs, q := newTestServer(t, Config{})
	if got := postQuery(t, hs.URL+"/query", q, http.StatusOK); got.Size != 1 || got.Epoch != 1 {
		t.Fatalf("initial answer = size %d epoch %d, want 1/1", got.Size, got.Epoch)
	}

	// Update without publish: the live snapshot must not move.
	resp, err := http.Post(hs.URL+"/update", "text/plain", strings.NewReader("add 1 5\nadd 2 6\n"))
	if err != nil {
		t.Fatal(err)
	}
	var ur updateResponse
	if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ur.Applied != 2 || ur.Pending != 2 || ur.Epoch != 1 {
		t.Fatalf("update response = %+v, want applied 2 pending 2 epoch 1", ur)
	}
	if got := postQuery(t, hs.URL+"/query", q, http.StatusOK); got.Size != 1 {
		t.Fatalf("unpublished update visible: size = %d, want 1", got.Size)
	}
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", s.Pending())
	}

	// Publish: the accumulated updates become visible atomically.
	resp, err = http.Post(hs.URL+"/publish", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := postQuery(t, hs.URL+"/query", q, http.StatusOK); got.Size != 3 || got.Epoch != 2 {
		t.Fatalf("after publish: size %d epoch %d, want 3/2", got.Size, got.Epoch)
	}

	// ?publish=1 applies and swaps in one call.
	resp, err = http.Post(hs.URL+"/update?publish=1", "text/plain", strings.NewReader("del 0 4\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := postQuery(t, hs.URL+"/query", q, http.StatusOK); got.Size != 2 || got.Epoch != 3 {
		t.Fatalf("after update?publish=1: size %d epoch %d, want 2/3", got.Size, got.Epoch)
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", s.Pending())
	}
}

// TestPublishAfterThreshold exercises the hook-driven publisher: once
// the pending backlog reaches PublishAfter, the background goroutine
// publishes without an explicit /publish.
func TestPublishAfterThreshold(t *testing.T) {
	s, hs, _ := newTestServer(t, Config{PublishAfter: 2})
	resp, err := http.Post(hs.URL+"/update", "text/plain", strings.NewReader("add 1 5\nadd 2 6\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for s.Current().Epoch < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("threshold publish did not happen (epoch %d, pending %d)", s.Current().Epoch, s.Pending())
		}
		time.Sleep(time.Millisecond)
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after auto-publish, want 0", s.Pending())
	}
}

// TestQueryErrors maps the failure modes to their status codes.
func TestQueryErrors(t *testing.T) {
	_, hs, _ := newTestServer(t, Config{})
	// Unparsable pattern.
	postQuery(t, hs.URL+"/query", "pattern {", http.StatusBadRequest)
	// Valid pattern the views cannot answer (label C is not covered).
	postQuery(t, hs.URL+"/query", "pattern Q {\n node c: C\n node b: B\n edge c -> b\n}", http.StatusUnprocessableEntity)
	// Bad strategy.
	postQuery(t, hs.URL+"/query?strategy=fastest", "pattern Q {\n node a: A\n node b: B\n edge a -> b\n}", http.StatusBadRequest)
	// Malformed or negative ?limit= is a 400 with a message, decided
	// before evaluation: a query the views cannot answer (which would be
	// a 422 from Answer) still gets the 400.
	notContained := "pattern Q {\n node c: C\n node b: B\n edge c -> b\n}"
	for _, route := range []string{"/query", "/match"} {
		for _, params := range []string{"?pairs=1&limit=abc", "?pairs=1&limit=-5", "?limit=abc"} {
			resp, err := http.Post(hs.URL+route+params, "text/plain", strings.NewReader(notContained))
			if err != nil {
				t.Fatal(err)
			}
			body := readAll(t, resp)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "bad limit") {
				t.Fatalf("%s%s = %d %q, want 400 bad limit", route, params, resp.StatusCode, body)
			}
		}
	}
	// GET is not a query.
	resp, err := http.Get(hs.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query = %d, want 405", resp.StatusCode)
	}
	// Malformed and out-of-range updates.
	for _, body := range []string{"frobnicate 1 2", "add 1", "add 0 99"} {
		resp, err := http.Post(hs.URL+"/update", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("update %q = %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestRequestTimeout: a request whose deadline is already gone when the
// engine first checks its context must come back 503, not hang.
func TestRequestTimeout(t *testing.T) {
	_, hs, q := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	postQuery(t, hs.URL+"/query", q, http.StatusServiceUnavailable)
}

// TestMatchEndpoint spot-checks direct evaluation against the snapshot
// graph, including the dual mode.
func TestMatchEndpoint(t *testing.T) {
	_, hs, q := newTestServer(t, Config{})
	if got := postQuery(t, hs.URL+"/match", q, http.StatusOK); got.Size != 1 {
		t.Fatalf("match size = %d, want 1", got.Size)
	}
	if got := postQuery(t, hs.URL+"/match?mode=dual", q, http.StatusOK); got.Size != 1 {
		t.Fatalf("dual match size = %d, want 1", got.Size)
	}
	postQuery(t, hs.URL+"/match?mode=psychic", q, http.StatusBadRequest)
}

// TestMetricsExposition drives a few requests and checks the Prometheus
// text rendering carries the counters, histogram and gauges.
func TestMetricsExposition(t *testing.T) {
	_, hs, q := newTestServer(t, Config{})
	postQuery(t, hs.URL+"/query", q, http.StatusOK)
	postQuery(t, hs.URL+"/query", "pattern {", http.StatusBadRequest)
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := sb.WriteString(readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`gvserve_requests_total{route="/query",code="2xx"} 1`,
		`gvserve_requests_total{route="/query",code="4xx"} 1`,
		`gvserve_request_duration_seconds_bucket{route="/query",le="+Inf"} 2`,
		"gvserve_snapshot_epoch 1",
		"gvserve_publish_total 1",
		"gvserve_inflight_requests 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestHealthz checks the liveness probe shape.
func TestHealthz(t *testing.T) {
	_, hs, _ := newTestServer(t, Config{})
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Status string `json:"status"`
		Epoch  uint64 `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Epoch != 1 {
		t.Fatalf("healthz = %+v", h)
	}
}

// TestFlushAfterBuffersAndCoalesces: with FlushAfter set, updates park
// in the change feed (applied=0, buffered>0, write clock unmoved),
// cancelling pairs annihilate before any view sees them, and a publish
// drains the backlog so the snapshot still reflects every submitted
// update.
func TestFlushAfterBuffersAndCoalesces(t *testing.T) {
	s, hs, q := newTestServer(t, Config{FlushAfter: 8})

	post := func(body string) updateResponse {
		t.Helper()
		resp, err := http.Post(hs.URL+"/update", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ur updateResponse
		if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
			t.Fatal(err)
		}
		return ur
	}

	// add 1→5 then cancel it: the feed coalesces to an empty net batch.
	ur := post("add 1 5\n")
	if ur.Applied != 0 || ur.Buffered != 1 || ur.Version != 0 || ur.Pending != 1 {
		t.Fatalf("buffered add = %+v, want applied 0 buffered 1 version 0 pending 1", ur)
	}
	ur = post("del 1 5\n")
	if ur.Applied != 0 || ur.Buffered != 1 {
		t.Fatalf("cancel still keyed = %+v, want applied 0 buffered 1", ur)
	}
	if s.maint.Stats.Batches != 0 {
		t.Fatalf("views refreshed while buffering: %d batches", s.maint.Stats.Batches)
	}

	// A real update plus the cancelled one: publish flushes the feed
	// first, so the snapshot picks up exactly the net add 2→6.
	post("add 2 6\n")
	snap := s.Publish()
	if snap.Version != 1 {
		t.Fatalf("snapshot version = %d, want 1 (net adds only)", snap.Version)
	}
	if got := postQuery(t, hs.URL+"/query", q, http.StatusOK); got.Size != 2 {
		t.Fatalf("post-flush answer size = %d, want 2", got.Size)
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after publish, want 0", s.Pending())
	}
	if s.maint.Stats.CoalescedAway == 0 {
		t.Fatal("coalescing should have cancelled the add/del pair")
	}
}

// TestFlushAfterThresholdFlushes: the backlog crossing FlushAfter
// triggers the flush inside ApplyUpdates itself.
func TestFlushAfterThresholdFlushes(t *testing.T) {
	s, _, _ := newTestServer(t, Config{FlushAfter: 2})
	applied, _, _ := s.ApplyUpdates([]gv.EdgeUpdate{{From: 1, To: 5}})
	if applied != 0 || s.feed.Backlog() != 1 {
		t.Fatalf("below threshold: applied %d backlog %d", applied, s.feed.Backlog())
	}
	applied, version, _ := s.ApplyUpdates([]gv.EdgeUpdate{{From: 2, To: 6}})
	if applied != 2 || version != 2 || s.feed.Backlog() != 0 {
		t.Fatalf("at threshold: applied %d version %d backlog %d, want 2/2/0", applied, version, s.feed.Backlog())
	}
}

// TestPublishAfterCountsBufferedDeltas: threshold publishing must fire
// on buffered (unflushed) deltas too — otherwise a large FlushAfter
// would starve PublishAfter.
func TestPublishAfterCountsBufferedDeltas(t *testing.T) {
	s, hs, _ := newTestServer(t, Config{PublishAfter: 2, FlushAfter: 100})
	resp, err := http.Post(hs.URL+"/update", "text/plain", strings.NewReader("add 1 5\nadd 2 6\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for s.Current().Epoch < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("threshold publish did not happen (epoch %d, pending %d)", s.Current().Epoch, s.Pending())
		}
		time.Sleep(time.Millisecond)
	}
	if s.Current().Version != 2 {
		t.Fatalf("auto-published snapshot version = %d, want 2", s.Current().Version)
	}
}

// TestMaintenanceMetricsExposition drives updates through both
// maintenance modes and checks the gvserve_maintenance_* series.
func TestMaintenanceMetricsExposition(t *testing.T) {
	for _, mode := range []struct {
		name  string
		remat bool
		want  string
	}{
		{"delta", false, "gvserve_maintenance_delta_total 1"},
		{"remat", true, "gvserve_maintenance_recompute_total 1"},
	} {
		t.Run(mode.name, func(t *testing.T) {
			_, hs, _ := newTestServer(t, Config{Rematerialize: mode.remat})
			resp, err := http.Post(hs.URL+"/update", "text/plain", strings.NewReader("add 1 5\n"))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			resp, err = http.Get(hs.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			text := readAll(t, resp)
			for _, want := range []string{
				mode.want,
				"gvserve_maintenance_batches_total 1",
				"gvserve_feed_backlog 0",
				"gvserve_maintenance_coalesced_total 0",
			} {
				if !strings.Contains(text, want) {
					t.Fatalf("metrics missing %q in:\n%s", want, text)
				}
			}
		})
	}
}

// readAll drains a response body as a string.
func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}
