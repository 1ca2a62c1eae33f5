package onocd

import (
	"compress/gzip"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// DefaultGzipMinBytes is the buffered-response size from which a JSON
// response is worth compressing; smaller bodies ship identity-encoded (the
// gzip header plus CPU cost would outweigh the savings). Streaming NDJSON
// responses commit to gzip on their first flush regardless of size — a
// stream's total is unknowable up front and almost always large.
const DefaultGzipMinBytes = 1024

// withGzip wraps a JSON/NDJSON route with response compression for clients
// that send Accept-Encoding: gzip. It is the outermost middleware: the chaos
// injector and the handlers write uncompressed bytes into it, so fault
// truncation budgets and the access log's byte counts stay in pre-compression
// units, and a truncated stream still reaches the client as a cut (never
// cleanly terminated) gzip stream.
func (s *Server) withGzip(next http.Handler) http.Handler {
	min := s.opts.GzipMinBytes
	if min < 0 {
		return next
	}
	if min == 0 {
		min = DefaultGzipMinBytes
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Add("Vary", "Accept-Encoding")
		if !acceptsGzip(r) {
			next.ServeHTTP(w, r)
			return
		}
		gw := &gzipResponseWriter{rw: w, minBytes: min}
		next.ServeHTTP(gw, r)
		// Only a normal return finalizes. A handler panic (the chaos
		// injector's reset and truncate faults abort with
		// http.ErrAbortHandler) skips close: a clean trailer would turn an
		// injected truncation into a valid response, and the abandoned
		// writer never returns to the pool.
		gw.close()
	})
}

// gzipWriters pools the compressors of finished responses. They compress at
// gzip.BestSpeed, whose deflatefast path takes about half the default
// level's CPU on compact JSON for 4–5% more bytes. A BestSpeed
// gzip.Writer carries about 1.2 MiB of flate state that Reset reuses, where
// a fresh writer per response would allocate it anew. Only close returns a
// writer, so a writer whose handler panicked mid-stream is dropped.
var gzipWriters = sync.Pool{New: func() any {
	gz, _ := gzip.NewWriterLevel(nil, gzip.BestSpeed) // a valid level never errs
	return gz
}}

// acceptsGzip reports whether the request's Accept-Encoding admits gzip
// (a gzip token with a non-zero quality value).
func acceptsGzip(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		enc, params, _ := strings.Cut(strings.TrimSpace(part), ";")
		if !strings.EqualFold(strings.TrimSpace(enc), "gzip") {
			continue
		}
		if qv, ok := strings.CutPrefix(strings.TrimSpace(params), "q="); ok {
			if f, err := strconv.ParseFloat(strings.TrimSpace(qv), 64); err == nil && f == 0 {
				return false
			}
		}
		return true
	}
	return false
}

// gzipResponseWriter defers the encoding decision until it knows whether the
// response is worth compressing: writes buffer until either the size
// threshold commits the response to gzip, or an explicit Flush (the NDJSON
// streaming handlers flush per line) commits immediately, or the handler
// returns with a small body still buffered and the response ships identity.
// WriteHeader is deferred with the same commit, because Content-Encoding
// must be decided before the status line leaves.
type gzipResponseWriter struct {
	rw       http.ResponseWriter
	minBytes int
	status   int    // recorded by WriteHeader, sent at commit
	buf      []byte // pending uncompressed bytes before the decision
	gz       *gzip.Writer
	identity bool
	closed   bool
}

func (w *gzipResponseWriter) Header() http.Header { return w.rw.Header() }

func (w *gzipResponseWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *gzipResponseWriter) Write(p []byte) (int, error) {
	if w.identity {
		return w.rw.Write(p)
	}
	if w.gz != nil {
		return w.gz.Write(p)
	}
	w.buf = append(w.buf, p...)
	if len(w.buf) >= w.minBytes {
		w.commitGzip()
	}
	return len(p), nil
}

// Flush commits an undecided response to gzip — a handler that flushes is
// streaming, and a stream's total size is unknowable — then pushes the
// compressed bytes to the wire. gzip.Writer.Flush emits a complete deflate
// block, so each NDJSON line reaches the client promptly, compressed.
func (w *gzipResponseWriter) Flush() {
	if !w.identity && w.gz == nil {
		w.commitGzip()
	}
	if w.gz != nil {
		w.gz.Flush() //nolint:errcheck // client gone; nothing to do
	}
	if f, ok := w.rw.(http.Flusher); ok {
		f.Flush()
	}
}

// commitGzip sends the headers with Content-Encoding: gzip and drains the
// buffer through a pooled writer reset onto this response.
func (w *gzipResponseWriter) commitGzip() {
	h := w.rw.Header()
	h.Set("Content-Encoding", "gzip")
	h.Del("Content-Length")
	w.sendHeader()
	w.gz = gzipWriters.Get().(*gzip.Writer)
	w.gz.Reset(w.rw)
	if len(w.buf) > 0 {
		w.gz.Write(w.buf) //nolint:errcheck
		w.buf = nil
	}
}

func (w *gzipResponseWriter) sendHeader() {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.rw.WriteHeader(w.status)
}

// close finalizes the response on normal handler return: a still-undecided
// body shipped identity (it stayed under the threshold), a committed gzip
// stream gets its trailer and its writer goes back to the pool.
func (w *gzipResponseWriter) close() {
	if w.closed {
		return
	}
	w.closed = true
	if w.gz != nil {
		w.gz.Close() //nolint:errcheck
		gzipWriters.Put(w.gz)
		w.gz = nil
		return
	}
	if w.identity {
		return
	}
	// Never committed: small (or empty) response, identity encoding. An
	// untouched writer (no WriteHeader, no Write) is left alone so net/http
	// applies its own defaults.
	if w.status == 0 && len(w.buf) == 0 {
		return
	}
	w.identity = true
	w.sendHeader()
	if len(w.buf) > 0 {
		w.rw.Write(w.buf) //nolint:errcheck
		w.buf = nil
	}
}
