package server

import (
	"context"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"wikisearch"
)

// statusWriter records the status code and byte count of a response.
type statusWriter struct {
	http.ResponseWriter
	code  int // 0 until the first write
	bytes int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// instrument builds the middleware chain for one route. Every route gets
// panic recovery, a request ID, the access log and the request counter;
// search routes additionally get the in-flight gauge, the concurrency
// limiter and the per-request deadline.
func (s *Server) instrument(h http.Handler, search bool) http.Handler {
	if search {
		h = s.withTimeout(h)
		h = s.withLimit(h)
		h = s.withInFlight(h)
	}
	return s.withObservability(h)
}

// withObservability assigns a request ID (threaded into the context so the
// engine's traces link back to the request), recovers panics, counts the
// request by status code and writes the structured access log line.
func (s *Server) withObservability(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := s.nextReqID.Add(1)
		r = r.WithContext(wikisearch.WithRequestID(r.Context(), id))
		sw := &statusWriter{ResponseWriter: w}
		sw.Header().Set("X-Request-ID", strconv.FormatUint(id, 10))
		start := time.Now()
		defer func() {
			if rec := recover(); rec != nil {
				s.met.panics.Inc()
				s.slog.Error("panic recovered",
					"req", id, "panic", fmt.Sprint(rec), "stack", string(debug.Stack()))
				if sw.code == 0 {
					if isV1(r) {
						s.v1Error(sw, http.StatusInternalServerError, "internal", "internal server error")
					} else {
						http.Error(sw, "internal server error", http.StatusInternalServerError)
					}
				}
			}
			code := sw.code
			if code == 0 {
				// Nothing was written: the handler dropped the response
				// because the client disconnected. nginx's 499.
				code = 499
			}
			s.met.countRequest(code)
			s.slog.Info("request",
				"req", id,
				"method", r.Method,
				"uri", r.URL.RequestURI(),
				"status", code,
				"bytes", sw.bytes,
				"duration", time.Since(start).Round(time.Microsecond))
		}()
		next.ServeHTTP(sw, r)
	})
}

// withInFlight tracks the number of searches currently executing.
func (s *Server) withInFlight(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.met.inFlight.Inc()
		defer s.met.inFlight.Dec()
		next.ServeHTTP(w, r)
	})
}

// withLimit bounds concurrent searches, failing fast with 503 instead of
// queueing unboundedly under overload (admission control).
func (s *Server) withLimit(next http.Handler) http.Handler {
	if s.sem == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
			next.ServeHTTP(w, r)
		default:
			s.met.limited.Inc()
			w.Header().Set("Retry-After", "1")
			if isV1(r) {
				s.v1Error(w, http.StatusServiceUnavailable, "overloaded", "server at capacity, retry shortly")
			} else {
				http.Error(w, "server at capacity, retry shortly", http.StatusServiceUnavailable)
			}
		}
	})
}

// withTimeout bounds each search by the configured deadline. The engine
// checks the context between BFS levels, so a timed-out search stops
// doing work shortly after the deadline, and the handler maps the
// context error to 504.
func (s *Server) withTimeout(next http.Handler) http.Handler {
	if s.cfg.Timeout <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}
