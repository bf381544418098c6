package serve

// The middleware stack production traffic demands, composed per route
// (outermost first): access logging → metrics → admission control →
// request timeout. Operational endpoints (/healthz, /metrics) skip
// admission control so the server stays observable under overload —
// shedding the probes that tell you why you are shedding would be
// self-inflicted blindness.

import (
	"context"
	"log"
	"net/http"
	"time"
)

// statusWriter captures the status code a handler wrote, so logging and
// metrics middleware can classify the response after the fact.
type statusWriter struct {
	http.ResponseWriter
	code int
}

// WriteHeader records the code before delegating.
func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Write defaults the code to 200 on an implicit header, like net/http.
func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// servedEpochKey keys the request-context slot in which a handler
// records the snapshot epoch it served (noteEpoch).
type servedEpochKey struct{}

// noteEpoch records, for the access log, the epoch of the snapshot the
// handler loaded. A no-op when access logging is off.
func noteEpoch(r *http.Request, epoch uint64) {
	if p, ok := r.Context().Value(servedEpochKey{}).(*uint64); ok {
		*p = epoch
	}
}

// withLogging writes one access-log line per request: method, route,
// status, latency and a snapshot epoch — the one the handler served
// from when it called noteEpoch (a publish during the request does not
// relabel it), else epoch() read after the handler returns. A nil
// logger disables logging.
func withLogging(h http.Handler, logger *log.Logger, epoch func() uint64) http.Handler {
	if logger == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		var served uint64 // epochs start at 1, so 0 means "not noted"
		start := time.Now()
		h.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), servedEpochKey{}, &served)))
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		if served == 0 {
			served = epoch()
		}
		logger.Printf("%s %s %d %s epoch=%d", r.Method, r.URL.Path, code, time.Since(start).Round(time.Microsecond), served)
	})
}

// withMetrics counts the request and observes its latency under the
// given route's instruments.
func withMetrics(h http.Handler, m *Metrics, route string) http.Handler {
	rm := m.forRoute(route)
	if rm == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(sw, r)
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		rm.requests[statusClass(code)].Add(1)
		rm.latency.observe(time.Since(start))
	})
}

// withAdmission bounds the number of requests concurrently inside h.
// Admission is a non-blocking semaphore acquire: when all slots are
// taken the request is shed immediately with 429 and a Retry-After
// hint, rather than queued — under sustained overload a queue only
// converts shed requests into timed-out ones while growing every
// latency percentile. A nil semaphore (limit <= 0) admits everything.
func withAdmission(h http.Handler, sem chan struct{}, m *Metrics) http.Handler {
	if sem == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case sem <- struct{}{}:
		default:
			m.shed.Add(1)
			w.Header().Set("Retry-After", "1")
			http.Error(w, "server at capacity", http.StatusTooManyRequests)
			return
		}
		m.inFlight.Add(1)
		defer func() {
			m.inFlight.Add(-1)
			<-sem
		}()
		h.ServeHTTP(w, r)
	})
}

// withTimeout attaches a deadline to the request context. Handlers pass
// the request context into Engine.WithRequest, so an expired deadline
// cancels the query at the next work-item boundary; the handler then
// maps context errors to 503. d <= 0 disables the deadline.
func withTimeout(h http.Handler, d time.Duration) http.Handler {
	if d <= 0 {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}
