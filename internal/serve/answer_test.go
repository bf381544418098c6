package serve

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	gv "graphviews"
	"graphviews/internal/simulation"
)

// The reference encoder: the struct-plus-reflection /query and /match
// response path that writeAnswer replaced, kept here so the byte format
// stays pinned to exactly what json.Encoder produced for it.

// queryResponse is the JSON shape of /query and /match results.
type queryResponse struct {
	Epoch     uint64     `json:"epoch"`
	Pattern   string     `json:"pattern"`
	Matched   bool       `json:"matched"`
	Size      int        `json:"size"`
	ViewsUsed []string   `json:"views_used,omitempty"`
	ElapsedUs int64      `json:"elapsed_us"`
	Edges     []edgeJSON `json:"edges,omitempty"`
}

// edgeJSON is one pattern edge's match set (emitted with ?pairs=1).
type edgeJSON struct {
	From  string     `json:"from"`
	To    string     `json:"to"`
	Pairs [][2]int64 `json:"pairs"`
}

// attachPairs adds per-edge match pairs to a response when ?pairs=1,
// truncated to ?limit= pairs per edge (default 100, 0 = unlimited).
func attachPairs(resp *queryResponse, res *gv.Result, r *http.Request) {
	if r.URL.Query().Get("pairs") != "1" || !res.Matched {
		return
	}
	limit := 100
	if v := r.URL.Query().Get("limit"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 {
			limit = n
		}
	}
	for i, e := range res.Pattern.Edges {
		em := &res.Edges[i]
		n := len(em.Pairs)
		if limit > 0 && n > limit {
			n = limit
		}
		ej := edgeJSON{
			From:  res.Pattern.Nodes[e.From].Name,
			To:    res.Pattern.Nodes[e.To].Name,
			Pairs: make([][2]int64, n),
		}
		for j := 0; j < n; j++ {
			ej.Pairs[j] = [2]int64{int64(em.Pairs[j].Src), int64(em.Pairs[j].Dst)}
		}
		resp.Edges = append(resp.Edges, ej)
	}
}

// writeReferenceAnswer is the old response path end to end.
func writeReferenceAnswer(w http.ResponseWriter, r *http.Request, epoch uint64, res *gv.Result, views []string, elapsedUs int64) {
	resp := &queryResponse{
		Epoch:     epoch,
		Pattern:   res.Pattern.Name,
		Matched:   res.Matched,
		Size:      res.Size(),
		ViewsUsed: views,
		ElapsedUs: elapsedUs,
	}
	attachPairs(resp, res, r)
	writeJSON(w, http.StatusOK, resp)
}

// trickyNames exercise every branch of appendString: the plain fast
// path, JSON escapes, the HTML characters json.Marshal would escape but
// the server's encoder does not, control characters, the JavaScript
// line separators, non-ASCII letters and invalid UTF-8.
var trickyNames = []string{
	"Q", "", `say "hi"`, `back\slash`, "<a>&b", "tab\there", "nl\nx", "bell\x07", "del\x7f",
	"ls\u2028ps\u2029", "Grüße", "日本語", "bad\xffutf8", "\xc3", "mixed\"<\u2028\x01>",
}

// TestWriteAnswerMatchesReference is the byte-identity differential
// test: over randomized GlueQuery answers (matched and empty), every
// ?pairs/?limit combination and names needing every escape class,
// writeAnswer's body, status and content type equal the reference
// encoder's exactly.
func TestWriteAnswerMatchesReference(t *testing.T) {
	g := gv.GenerateYouTubeLike(3000, 12000, 7)
	vs := gv.YouTubeViews()
	exts := gv.Materialize(g, vs)
	rng := rand.New(rand.NewSource(11))
	queries := []string{"", "pairs=1", "pairs=1&limit=0", "pairs=1&limit=3", "limit=3", "pairs=0&limit=0"}

	var matched, empty, compared int
	for i := 0; i < 40; i++ {
		q := gv.GlueQuery(rng, vs, 3, 3)
		res, used, err := gv.Answer(q, exts, gv.UseMinimal)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		var views []string
		for _, v := range used {
			views = append(views, vs.Defs[v].Name)
		}
		// Rename the pattern and one node through the tricky names.
		q.Name = trickyNames[i%len(trickyNames)]
		q.Nodes[i%len(q.Nodes)].Name = trickyNames[(i+3)%len(trickyNames)]
		for _, r := range []*gv.Result{res, simulation.Empty(q)} {
			if r.Matched {
				matched++
			} else {
				empty++
			}
			for _, vu := range [][]string{views, nil} {
				for _, params := range queries {
					epoch, elapsed := rng.Uint64(), rng.Int63()
					req := httptest.NewRequest(http.MethodPost, "/query?"+params, nil)
					want := httptest.NewRecorder()
					writeReferenceAnswer(want, req, epoch, r, vu, elapsed)
					got := httptest.NewRecorder()
					limit, ok := parsePairLimit(got, req)
					if !ok {
						t.Fatalf("params %q rejected", params)
					}
					writeAnswer(got, epoch, r, vu, elapsed, limit)
					if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
						t.Fatalf("status/content type %d %q, want %d %q", got.Code, got.Header().Get("Content-Type"), want.Code, want.Header().Get("Content-Type"))
					}
					if g, w := got.Body.String(), want.Body.String(); g != w {
						t.Fatalf("query %d (%s) params %q: body differs\n got %.300q\nwant %.300q", i, q.Name, params, g, w)
					}
					compared++
				}
			}
		}
	}
	if matched == 0 || empty == 0 {
		t.Fatalf("coverage: %d matched, %d empty answers", matched, empty)
	}
	t.Logf("%d bodies byte-identical (%d matched, %d empty answers)", compared, matched, empty)
}

// TestAppendStringMatchesEncoder drives appendString with random byte
// strings — mostly plain ASCII, salted with escapes, multi-byte runes,
// line separators and stray continuation bytes — against the encoder.
func TestAppendStringMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	salt := []string{`"`, `\`, "<", ">", "&", "\n", "\r", "\t", "\b", "\f", "\x00", "\x1f", "\x7f",
		"\u2028", "\u2029", "é", "\U0001F600", "\xff", "\x80", "\xed\xa0\x80", string(utf8.RuneError)}
	for i := 0; i < 5000; i++ {
		var sb strings.Builder
		for n := rng.Intn(12); n > 0; n-- {
			if rng.Intn(4) == 0 {
				sb.WriteString(salt[rng.Intn(len(salt))])
			} else {
				sb.WriteByte(byte(' ' + rng.Intn(95)))
			}
		}
		s := sb.String()
		want := httptest.NewRecorder()
		writeJSON(want, http.StatusOK, s)
		if got := string(appendString(nil, s)) + "\n"; got != want.Body.String() {
			t.Fatalf("appendString(%q) = %q, want %q", s, got, want.Body.String())
		}
	}
}

// TestAppendPair pins the two-digit writer against strconv at every
// digit-count boundary.
func TestAppendPair(t *testing.T) {
	ids := []gv.NodeID{0, 1<<31 - 1}
	for v := gv.NodeID(1); v > 0 && v < 1<<30; v *= 10 {
		ids = append(ids, v-1, v, v+1, 2*v-1)
	}
	for i, src := range ids {
		dst := ids[(i*7+3)%len(ids)]
		want := "[" + strconv.Itoa(int(src)) + "," + strconv.Itoa(int(dst)) + "]"
		if got := string(appendPair([]byte("x"), gv.Pair{Src: src, Dst: dst})); got != "x"+want {
			t.Fatalf("appendPair(%d,%d) = %q, want %q", src, dst, got, "x"+want)
		}
	}
}

// discardWriter is a reusable http.ResponseWriter that drops the body.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(int)             {}

// BenchmarkWriteAnswer encodes one ~40k-pair answer (two 20k-pair edges
// over 100k node ids, as ?pairs=1&limit=0 asks) through writeAnswer and
// through the reference encoder it replaced.
func BenchmarkWriteAnswer(b *testing.B) {
	q, err := gv.ParsePattern("pattern Q {\n node a: A\n node b: B\n node c: C\n edge a -> b\n edge b -> c\n}")
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	res := &gv.Result{Pattern: q, Matched: true, Edges: make([]simulation.EdgeMatches, len(q.Edges))}
	for i := range res.Edges {
		pairs := make([]gv.Pair, 20000)
		for j := range pairs {
			pairs[j] = gv.Pair{Src: gv.NodeID(rng.Intn(100000)), Dst: gv.NodeID(rng.Intn(100000))}
		}
		slices.SortFunc(pairs, func(x, y gv.Pair) int {
			if x.Src != y.Src {
				return int(x.Src - y.Src)
			}
			return int(x.Dst - y.Dst)
		})
		res.Edges[i].Pairs = pairs
	}
	views := []string{"V1", "V2"}
	req := httptest.NewRequest(http.MethodPost, "/query?pairs=1&limit=0", nil)
	w := &discardWriter{h: http.Header{}}
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			writeAnswer(w, 1, res, views, 1234, 0)
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			writeReferenceAnswer(w, req, 1, res, views, 1234)
		}
	})
}
