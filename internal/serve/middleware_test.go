package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestAdmissionSheds verifies the bounded-in-flight invariant: with all
// semaphore slots occupied by blocked handlers, further requests are
// shed immediately with 429 + Retry-After instead of queueing, and once
// a slot frees up admission resumes.
func TestAdmissionSheds(t *testing.T) {
	const limit = 3
	m := newMetrics([]string{"/blocked"})
	entered := make(chan struct{}, limit)
	release := make(chan struct{})
	h := withMetrics(withAdmission(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	}), make(chan struct{}, limit), m), m, "/blocked")

	hs := httptest.NewServer(h)
	defer hs.Close()

	// Fill every slot with a request parked inside the handler.
	var wg sync.WaitGroup
	for i := 0; i < limit; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(hs.URL)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("admitted request: status = %d", resp.StatusCode)
			}
		}()
	}
	for i := 0; i < limit; i++ {
		<-entered
	}
	if got := m.InFlight(); got != limit {
		t.Fatalf("InFlight = %d, want %d", got, limit)
	}

	// Every additional request must be shed, not queued.
	for i := 0; i < 5; i++ {
		resp, err := http.Get(hs.URL)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("overload request %d: status = %d, want 429", i, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("shed response missing Retry-After")
		}
	}
	if got := m.Shed(); got != 5 {
		t.Fatalf("Shed = %d, want 5", got)
	}
	if got := m.RequestCount("/blocked", "429"); got != 5 {
		t.Fatalf("RequestCount 429 = %d, want 5", got)
	}

	// Drain the parked handlers (and unblock any later ones); admission
	// must recover.
	close(release)
	wg.Wait()
	if got := m.InFlight(); got != 0 {
		t.Fatalf("InFlight after drain = %d, want 0", got)
	}
	resp, err := http.Get(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain request: status = %d, want 200", resp.StatusCode)
	}
	if got := m.RequestCount("/blocked", "2xx"); got != limit+1 {
		t.Fatalf("RequestCount 2xx = %d, want %d", got, limit+1)
	}
}

// TestAdmissionUnbounded: a nil semaphore admits everything.
func TestAdmissionUnbounded(t *testing.T) {
	m := newMetrics([]string{"/x"})
	h := withAdmission(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}), nil, m)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/x", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if m.Shed() != 0 {
		t.Fatalf("Shed = %d, want 0", m.Shed())
	}
}

// TestLatencyHistogram checks bucket assignment at the boundaries.
func TestLatencyHistogram(t *testing.T) {
	var h latencyHist
	h.observe(100e3) // 0.1 ms → first bucket (≤ 0.5 ms)
	h.observe(3e6)   // 3 ms → ≤ 5 ms bucket
	h.observe(20e9)  // 20 s → +Inf overflow
	if got := h.counts[0].Load(); got != 1 {
		t.Fatalf("bucket 0 = %d, want 1", got)
	}
	if got := h.counts[3].Load(); got != 1 {
		t.Fatalf("bucket ≤5ms = %d, want 1", got)
	}
	if got := h.counts[len(latencyBuckets)].Load(); got != 1 {
		t.Fatalf("+Inf bucket = %d, want 1", got)
	}
	if got := h.total.Load(); got != 3 {
		t.Fatalf("total = %d, want 3", got)
	}
}

// TestStatusClass pins the counter-slot mapping.
func TestStatusClass(t *testing.T) {
	for code, want := range map[int]int{200: 0, 204: 0, 400: 1, 404: 1, 422: 1, 429: 3, 500: 2, 503: 2} {
		if got := statusClass(code); got != want {
			t.Errorf("statusClass(%d) = %d, want %d", code, got, want)
		}
	}
}

// publishOnWrite publishes a fresh snapshot as the handler starts
// writing its response — after the handler loaded its snapshot and
// before the access-log line is written.
type publishOnWrite struct {
	*httptest.ResponseRecorder
	s *Server
}

func (p *publishOnWrite) Write(b []byte) (int, error) {
	p.s.Publish()
	return p.ResponseRecorder.Write(b)
}

// TestAccessLogServedEpoch: /query and /match log the epoch they served
// even when a publish lands mid-request; a route that loads no snapshot
// (/publish) logs the epoch live when it finishes.
func TestAccessLogServedEpoch(t *testing.T) {
	var logBuf bytes.Buffer
	s, _, q := newTestServer(t, Config{Logger: log.New(&logBuf, "", 0)})
	h := s.Handler()
	lastLine := func() string {
		lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
		return lines[len(lines)-1]
	}
	for _, route := range []string{"/query", "/match"} {
		served := s.Current().Epoch
		w := &publishOnWrite{ResponseRecorder: httptest.NewRecorder(), s: s}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, route, strings.NewReader(q)))
		var qr queryResponse
		if err := json.Unmarshal(w.Body.Bytes(), &qr); err != nil {
			t.Fatalf("%s: %v", route, err)
		}
		if qr.Epoch != served || s.Current().Epoch != served+1 {
			t.Fatalf("%s: served epoch %d, live %d; want %d then %d", route, qr.Epoch, s.Current().Epoch, served, served+1)
		}
		line := lastLine()
		if !strings.HasPrefix(line, "POST "+route+" 200 ") || !strings.HasSuffix(line, fmt.Sprintf(" epoch=%d", served)) {
			t.Fatalf("%s access log %q, want the served epoch %d", route, line, served)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/publish", nil))
	if want := fmt.Sprintf(" epoch=%d", s.Current().Epoch); !strings.HasSuffix(lastLine(), want) {
		t.Fatalf("/publish access log %q, want suffix %q", lastLine(), want)
	}
}
