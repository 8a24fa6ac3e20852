package obs

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// APIPrefix is the versioned mount point of the HTTP API. Every route —
// built-in telemetry and extra Handlers alike — is reachable both at its
// legacy unversioned path and under this prefix; new clients should use
// the prefixed form, which is the surface future versions will keep
// stable.
const APIPrefix = "/api/v1"

// ServeOptions configures the embedded observability server.
type ServeOptions struct {
	// Addr is the listen address (host:port). A ":0" port picks a free
	// one; read the result from Server.Addr.
	Addr string
	// Registry backs /metrics. A nil registry serves an empty (still
	// valid) exposition.
	Registry *Registry
	// Logger receives the server's lifecycle, access and error logs
	// (nil = drop).
	Logger *slog.Logger
	// Handlers mounts extra routes (e.g. "/runs" → the run-ledger
	// handler) on the server's mux.
	Handlers map[string]http.Handler
	// Tenant, when non-nil, extracts the request's tenant identity for
	// the access log and the RED metrics ("" reads as anonymous).
	Tenant func(*http.Request) string
	// RED, when non-nil, records per-route/per-tenant request metrics
	// for every served request.
	RED *RED
	// Flight, when non-nil, receives an event for every 5xx response —
	// the HTTP layer's contribution to the black box.
	Flight *FlightRecorder
}

// Server is the embedded HTTP observability plane of a run: /metrics in
// the Prometheus text format, /healthz (liveness) and /readyz (flips once
// the corpus is loaded, and back off as soon as draining begins),
// /debug/pprof/* and the /progress SSE stream fed by Publish. Construct
// with Serve; a nil *Server is a valid no-op, so pipeline code can
// publish unconditionally whether or not -listen was given.
//
// Every request passes through one middleware that accepts or mints a
// W3C traceparent, threads the TraceContext through the request
// context, echoes the header on the response, and emits the access log
// line and RED metrics with the trace id attached.
type Server struct {
	ln       net.Listener
	srv      *http.Server
	hub      *sseHub
	log      *slog.Logger
	ready    atomic.Bool
	draining atomic.Bool
	done     chan struct{}
	// unused holds the connections that have not sent a byte yet.
	unused sync.Map
}

// Serve binds opts.Addr and starts serving in a background goroutine.
// The listener is bound synchronously, so a non-nil return means the
// endpoints are already reachable (and Addr reports the real port).
func Serve(opts ServeOptions) (*Server, error) {
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", opts.Addr, err)
	}
	s := newServer(opts)
	s.ln = ln
	go func() {
		defer close(s.done)
		// ErrServerClosed is the normal Shutdown signal, not a failure.
		if err := s.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			s.log.Error("obs: server stopped", "err", err)
		}
	}()
	s.log.Info("obs: serving telemetry", "addr", s.Addr())
	return s, nil
}

// newServer builds the server and its full handler chain without
// binding a listener — the piece tests exercise directly with httptest.
func newServer(opts ServeOptions) *Server {
	log := opts.Logger
	if log == nil {
		log = discardLogger
	}
	s := &Server{hub: newSSEHub(), log: log, done: make(chan struct{})}

	mux := http.NewServeMux()
	// Every route mounts twice: under the versioned /api/v1 prefix — the
	// stable API surface — and at its legacy unversioned path, kept as an
	// alias for existing clients and scrape configs. The versioned mount
	// strips the prefix, so path-parsing handlers (jobs, runs) see the
	// same URL shape either way.
	handle := func(path string, h http.Handler) {
		mux.Handle(path, h)
		mux.Handle(APIPrefix+path, http.StripPrefix(APIPrefix, h))
	}
	handleFunc := func(path string, f http.HandlerFunc) { handle(path, f) }
	handleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	handleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		// Draining wins over ready: the instant shutdown begins, load
		// balancers must stop routing here, before the listener closes.
		if s.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining: shutdown in progress")
			return
		}
		if !s.ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "not ready: corpus still loading")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	handleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := opts.Registry.WritePrometheus(w); err != nil {
			s.log.Warn("obs: /metrics write failed", "err", err)
		}
	})
	handleFunc("/progress", s.handleProgress)
	handleFunc("/debug/pprof/", pprof.Index)
	handleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	handleFunc("/debug/pprof/profile", pprof.Profile)
	handleFunc("/debug/pprof/symbol", pprof.Symbol)
	handleFunc("/debug/pprof/trace", pprof.Trace)
	paths := []string{"/healthz", "/readyz", "/metrics", "/progress", "/debug/pprof/"}
	for path, h := range opts.Handlers {
		handle(path, h)
		paths = append(paths, path)
	}
	sort.Strings(paths)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "coevo observability server")
		for _, p := range paths {
			fmt.Fprintln(w, "  "+p)
		}
		fmt.Fprintf(w, "every route is also mounted under %s (the stable, versioned surface)\n", APIPrefix)
	})

	// Count connected live-progress clients in the unified registry, so a
	// scrape shows who else is watching.
	opts.Registry.GaugeFunc("coevo_obs_sse_clients",
		"Connected /progress SSE clients.",
		func() float64 { return float64(s.hub.clientCount()) })

	s.srv = &http.Server{Handler: s.instrument(opts, mux), ReadHeaderTimeout: 5 * time.Second}
	// Clients dial connections ahead of need and may never send on them,
	// and net/http's Shutdown waits on such a connection for five seconds
	// as on an active one. Close them once shutdown has closed the
	// listener.
	s.srv.ConnState = func(c net.Conn, st http.ConnState) {
		if st == http.StateNew {
			s.unused.Store(c, nil)
		} else {
			s.unused.Delete(c)
		}
	}
	s.srv.RegisterOnShutdown(func() {
		s.unused.Range(func(c, _ any) bool {
			c.(net.Conn).Close() //nolint:errcheck // best-effort close
			return true
		})
	})
	return s
}

// instrument wraps the mux in the request-scoped observability
// middleware: traceparent in, TraceContext through the context,
// traceparent out, one access-log line and one RED observation per
// request, and a flight-recorder event for every 5xx.
func (s *Server) instrument(opts ServeOptions, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		tc, ok := ParseTraceparent(r.Header.Get("traceparent"))
		if !ok {
			tc = NewTraceContext()
		}
		r = r.WithContext(WithTraceContext(r.Context(), tc))
		w.Header().Set("traceparent", tc.Traceparent())
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}

		next.ServeHTTP(sw, r)

		elapsed := time.Since(start)
		route := routeLabel(r.URL.Path)
		tenant := ""
		if opts.Tenant != nil {
			tenant = opts.Tenant(r)
		}
		if tenant == "" {
			tenant = "anonymous"
		}
		opts.RED.Observe(route, tenant, sw.status, elapsed.Seconds())
		// Telemetry scrapes and probes log at debug — they recur every few
		// seconds and would drown the API traffic at info.
		level := slog.LevelInfo
		switch route {
		case "/metrics", "/healthz", "/readyz", "/progress", "/debug/pprof":
			level = slog.LevelDebug
		}
		s.log.Log(r.Context(), level, "obs: http",
			"method", r.Method, "route", route, "path", r.URL.Path,
			"status", sw.status, "duration", elapsed,
			"tenant", tenant, "trace_id", tc.TraceID)
		if sw.status >= http.StatusInternalServerError {
			opts.Flight.Record(FlightEvent{
				Source: "http", Kind: "request-failed", TraceID: tc.TraceID,
				Name: route, Detail: fmt.Sprintf("%s %s -> %d", r.Method, r.URL.Path, sw.status),
			})
		}
	})
}

// statusWriter captures the response status for the access log and RED
// metrics while passing streaming capabilities through.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(p)
}

// Flush keeps SSE streaming working through the wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// routeLabel collapses a request path onto a bounded route template —
// ids become {id}, pprof sub-pages fold together, and anything
// unrecognized lands in "other" — so the per-route metric label can
// never explode with the URL space.
func routeLabel(path string) string {
	p := strings.TrimPrefix(path, APIPrefix)
	if p == "" {
		p = "/"
	}
	switch p {
	case "/", "/healthz", "/readyz", "/metrics", "/progress", "/status", "/jobs", "/runs", "/shard/run":
		return p
	}
	switch {
	case strings.HasPrefix(p, "/debug/pprof"):
		return "/debug/pprof"
	case strings.HasPrefix(p, "/cache/"):
		// Content-addressed cache keys: one label for the whole keyspace.
		return "/cache/{key}"
	case strings.HasPrefix(p, "/jobs/"):
		rest := strings.Trim(strings.TrimPrefix(p, "/jobs/"), "/")
		_, action, _ := strings.Cut(rest, "/")
		switch action {
		case "":
			return "/jobs/{id}"
		case "result", "events", "cancel", "flight":
			return "/jobs/{id}/" + action
		}
		return overflowLabel
	case strings.HasPrefix(p, "/runs/"):
		return "/runs/{id}"
	}
	return overflowLabel
}

// Addr returns the server's bound address (host:port). Safe on nil.
func (s *Server) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// URL returns the server's base URL. Safe on nil.
func (s *Server) URL() string {
	if s == nil {
		return ""
	}
	return "http://" + s.Addr()
}

// SetReady flips /readyz: the pipeline calls it once corpus loading
// completes, so orchestrators can distinguish "process up" from "run
// actually analyzing". Safe on nil.
func (s *Server) SetReady(ready bool) {
	if s == nil {
		return
	}
	s.ready.Store(ready)
}

// BeginDrain flips /readyz to 503 immediately — before the queue stops
// accepting and long before the listener closes — so load balancers
// stop routing new work while in-flight requests finish. Safe on nil
// and idempotent; Shutdown calls it implicitly.
func (s *Server) BeginDrain() {
	if s == nil {
		return
	}
	s.draining.Store(true)
}

// Shutdown gracefully stops the server: SSE clients are disconnected,
// in-flight requests get until ctx to finish, and the listener closes.
// Safe on nil and idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	if s == nil {
		return nil
	}
	s.BeginDrain()
	s.ready.Store(false)
	s.hub.close()
	err := s.srv.Shutdown(ctx)
	if s.ln != nil {
		<-s.done
	}
	s.log.Info("obs: telemetry server stopped", "addr", s.Addr())
	return err
}

// handleProgress streams the run's event feed as server-sent events:
// one "project" event per completion or failure and one "snapshot" event
// per latency-snapshot publish, each carrying a JSON payload. The SSE
// transport itself is the shared WriteSSE, the same one the job service
// uses for per-job streams.
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	id, ch, ok := s.hub.subscribe()
	if !ok {
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
		return
	}
	defer s.hub.unsubscribe(id)
	// The comment line confirms the subscription before any event fires,
	// and the retry hint keeps browser reconnects polite.
	WriteSSE(w, r, ": coevo progress stream\nretry: 1000\n\n", ch) //nolint:errcheck // a non-streaming writer already got a 500
}
