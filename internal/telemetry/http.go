package telemetry

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Server exposes a registry over HTTP: `/metrics` in Prometheus text
// format (only when it has a registry) and the standard `/debug/pprof`
// profiling handlers. It listens on its own mux so enabling telemetry
// never touches http.DefaultServeMux.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// ServerOption customizes StartServer.
type ServerOption func(*serverConfig)

type serverConfig struct {
	extra map[string]http.Handler
}

// WithHandler mounts an extra handler on the telemetry mux (e.g. the
// observatory's /statusz). Paths starting with /metrics or /debug are
// reserved and silently ignored.
func WithHandler(path string, h http.Handler) ServerOption {
	return func(c *serverConfig) {
		if path != "" && path != "/" && h != nil &&
			!strings.HasPrefix(path, "/metrics") && !strings.HasPrefix(path, "/debug") {
			c.extra[path] = h
		}
	}
}

// EnableContentionProfiling turns on runtime mutex and block profiling so
// /debug/pprof/mutex and /debug/pprof/block carry data. mutexFraction is
// the sampling denominator passed to runtime.SetMutexProfileFraction;
// blockRate is the nanosecond threshold for runtime.SetBlockProfileRate.
// Values <= 0 leave the corresponding profile untouched (both default to
// off, which is also the process default), so calling this with zeros is
// a no-op.
func EnableContentionProfiling(mutexFraction, blockRate int) {
	if mutexFraction > 0 {
		runtime.SetMutexProfileFraction(mutexFraction)
	}
	if blockRate > 0 {
		runtime.SetBlockProfileRate(blockRate)
	}
}

// StartServer binds addr (e.g. "127.0.0.1:9090" or ":0") and serves the
// registry in a background goroutine. A nil registry mounts no /metrics:
// the path answers 404 and the index does not list it. Returns an error
// if the listen fails.
func StartServer(addr string, reg *Registry, opts ...ServerOption) (*Server, error) {
	cfg := serverConfig{extra: make(map[string]http.Handler)}
	for _, o := range opts {
		o(&cfg)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	index := []string{"/debug/pprof/"}
	if reg != nil {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			reg.WritePrometheus(w) //nolint:errcheck // headers are already sent
		})
		index = append(index, "/metrics")
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for path, h := range cfg.extra {
		mux.Handle(path, h)
		index = append(index, path)
	}
	sort.Strings(index)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "scotch telemetry:")
		for _, p := range index {
			fmt.Fprintf(w, " %s", p)
		}
		fmt.Fprintln(w)
	})
	s := &Server{ln: ln, srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}}
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close shuts the listener down. Nil-safe.
func (s *Server) Close() error {
	if s == nil || s.srv == nil {
		return nil
	}
	return s.srv.Close()
}
