package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// PprofServer is an opt-in HTTP server exposing the standard
// /debug/pprof endpoints, for profiling the long-running daemons
// (ddp worker, clusterd) without linking profiling into every binary's
// default path.
type PprofServer struct {
	lis net.Listener
	srv *http.Server
}

// StartPprof serves net/http/pprof on addr (":0" picks a free port).
// A dedicated mux is used so the process's default mux stays untouched.
func StartPprof(addr string) (*PprofServer, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: pprof listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	p := &PprofServer{lis: lis, srv: &http.Server{Handler: mux}}
	go p.srv.Serve(lis)
	return p, nil
}

// Addr returns the server's listen address.
func (p *PprofServer) Addr() string { return p.lis.Addr().String() }

// Close shuts the server down.
func (p *PprofServer) Close() error { return p.srv.Close() }
