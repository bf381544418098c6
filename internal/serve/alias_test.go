package serve

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	gv "graphviews"
)

// TestQueryMergedRunsUnderPublish runs concurrent /query?pairs=1&limit=0
// requests beside /update and Publish, on glued queries whose λ unions
// several extension runs for some edge (the seeding merge) next to edges
// that read a single run in place. Every answer must equal direct Match
// on the Snapshot of the epoch it reports. Under -race this also shows
// that the extension runs MatchJoin reads in place are never written,
// neither by delta propagation nor by a publish.
func TestQueryMergedRunsUnderPublish(t *testing.T) {
	const nodes = 3000
	g := gv.GenerateYouTubeLike(nodes, 12000, 21)
	vs := gv.YouTubeViews()
	rng := rand.New(rand.NewSource(21))

	var queries []*gv.Pattern
	merged := 0
	for attempts := 0; len(queries) < 6 && attempts < 400; attempts++ {
		q := gv.GlueQuery(rng, vs, 3+rng.Intn(3), 3+rng.Intn(3))
		_, l, ok, err := gv.MinimalViews(q, vs)
		if err != nil || !ok {
			continue
		}
		multi := false
		for _, refs := range l.PerEdge {
			multi = multi || len(refs) > 1
		}
		if multi {
			merged++
		} else if len(queries) >= 3 {
			continue // keep room for queries that merge
		}
		queries = append(queries, q)
	}
	if merged < 2 {
		t.Fatalf("only %d glued queries with a multi-run λ", merged)
	}

	// The write script, drawn before the server owns g: deletes of
	// existing edges and random inserts.
	var steps []string
	for i := 0; i < 5; i++ {
		var sb strings.Builder
		for j := 0; j < 20; j++ {
			u := gv.NodeID(rng.Intn(nodes))
			if out := g.Out(u); j%2 == 0 && len(out) > 0 {
				fmt.Fprintf(&sb, "del %d %d\n", u, out[rng.Intn(len(out))])
			} else {
				fmt.Fprintf(&sb, "add %d %d\n", u, rng.Intn(nodes))
			}
		}
		steps = append(steps, sb.String())
	}

	s, err := NewServer(g, vs, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)

	snaps := map[uint64]*Snapshot{s.Current().Epoch: s.Current()}
	var snapMu sync.Mutex
	stop := make(chan struct{})
	go func() {
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
		}
	}()

	type obs struct {
		q    int
		resp *queryResponse
	}
	const readers = 4
	results := make([][]obs, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				qi := i % len(queries)
				qr := postQuery(t, hs.URL+"/query?pairs=1&limit=0", queries[qi].String(), http.StatusOK)
				results[r] = append(results[r], obs{qi, qr})
			}
		}()
	}
	wg.Wait()
	if len(snaps) < len(steps)+1 {
		t.Fatalf("%d snapshots, want %d", len(snaps), len(steps)+1)
	}

	// Direct evaluation on each epoch's retained snapshot, rendered like
	// the response.
	type key struct {
		epoch uint64
		q     int
	}
	want := map[key]string{}
	render := func(epoch uint64, qi int) string {
		k := key{epoch, qi}
		if s, ok := want[k]; ok {
			return s
		}
		res := gv.Match(snaps[epoch].Graph, queries[qi])
		qr := &queryResponse{Matched: res.Matched, Size: res.Size()}
		attachPairs(qr, res, httptest.NewRequest(http.MethodGet, "/?pairs=1&limit=0", nil))
		want[k] = fmt.Sprint(qr.Matched, qr.Size, qr.Edges)
		return want[k]
	}
	checked := 0
	for r := range results {
		for _, o := range results[r] {
			if snaps[o.resp.Epoch] == nil {
				t.Fatalf("response claims unknown epoch %d", o.resp.Epoch)
			}
			if got := fmt.Sprint(o.resp.Matched, o.resp.Size, o.resp.Edges); got != render(o.resp.Epoch, o.q) {
				t.Fatalf("query %d epoch %d: served answer differs from direct Match", o.q, o.resp.Epoch)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no reader observations")
	}
	t.Logf("checked %d answers over %d queries (%d with a multi-run λ), %d epochs", checked, len(queries), merged, len(snaps))
}
