package obs

import (
	"net"
	"net/http"
	"net/http/pprof"
)

// Server serves /metrics (Prometheus text format) and /debug/pprof/* on
// one listener. Start it with Serve.
type Server struct {
	lis net.Listener
	srv *http.Server
}

// Serve binds addr and serves the registry's /metrics page plus the
// net/http/pprof endpoints. Host-less addresses (":9090", ":0") bind
// 127.0.0.1: the endpoints expose profiling handlers and internals, so
// reaching them from off-box requires an explicit host ("0.0.0.0:9090").
// Port 0 picks a free port; Addr reports the bound address.
func Serve(addr string, reg *Registry) (*Server, error) {
	return ServeWith(addr, reg, nil)
}

// ServeWith is Serve with an extra-handler hook: mount, when non-nil, adds
// application routes to the same mux before the listener starts, so one
// port carries /metrics, pprof and the application's own endpoints (the
// serving front door uses this).
func ServeWith(addr string, reg *Registry, mount func(*http.ServeMux)) (*Server, error) {
	lis, err := net.Listen("tcp", normalizeAddr(addr))
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if mount != nil {
		mount(mux)
	}
	s := &Server{lis: lis, srv: &http.Server{Handler: mux}}
	go func() { _ = s.srv.Serve(lis) }()
	return s, nil
}

// Addr returns the bound address (useful with port 0).
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.lis.Addr().String()
}

// Close stops the listener and any in-flight handlers.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}

// normalizeAddr defaults the host to loopback when only a port is given.
func normalizeAddr(addr string) string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return addr // let net.Listen report the problem
	}
	if host == "" {
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port)
}
