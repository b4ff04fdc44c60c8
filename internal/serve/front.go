package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// The listener bounds how long it waits for a client's request headers, so
// a slow-loris client cannot pin a connection forever, and closes
// keep-alive connections idle for idleTimeout. statszTimeout bounds what
// /statsz waits for to fill in its document (a router polls every replica).
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
	statszTimeout     = 5 * time.Second
)

// Front is the HTTP front a single-node Server and a fleet router share:
// the listener, the serve loop, the drain, /healthz and /statsz. Its owner
// registers its own routes with Handle and starts each handler that must
// not run while draining with Refuse.
//
// Shutdown drains in one order: Refuse and /healthz answer 503 "draining"
// from its first instant; http.Server.Shutdown closes the listener and
// waits for every in-flight handler, each of which answers its own request;
// the goroutines Start ran beside the loop are told to stop; and Shutdown
// returns once the loop and each of them has, so nothing Start began still
// holds the owner.
type Front struct {
	mux      http.ServeMux
	health   func() string
	stats    func(context.Context) any
	draining atomic.Bool
	srv      *http.Server
	ln       net.Listener
	quit     chan struct{}
	bg       sync.WaitGroup // the HTTP loop and the goroutines Start ran beside it
	once     sync.Once
	err      error
}

// NewFront builds a front whose /healthz answers 503 with the reason health
// returns, when it returns one (a nil health is always healthy), and whose
// /statsz serves the document stats returns for a context bounded by
// statszTimeout. No socket is open until Start.
func NewFront(health func() string, stats func(context.Context) any) *Front {
	f := &Front{health: health, stats: stats}
	f.Handle("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		if !f.Refuse(w) {
			fmt.Fprintln(w, "ok")
		}
	})
	f.Handle("GET /statsz", func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), statszTimeout)
		defer cancel()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(f.stats(ctx)) //nolint:errcheck
	})
	return f
}

// Handle registers handler for pattern (http.ServeMux syntax).
func (f *Front) Handle(pattern string, handler http.HandlerFunc) {
	f.mux.HandleFunc(pattern, handler)
}

// Handler returns the front's routes, to serve them without Start.
func (f *Front) Handler() http.Handler { return &f.mux }

// Start listens on addr and serves until Shutdown, the HTTP loop on a
// background goroutine, and runs each of bg on a goroutine of its own; bg
// must return once quit closes.
func (f *Front) Start(addr string, bg ...func(quit <-chan struct{})) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	f.ln, f.quit = ln, make(chan struct{})
	// Bounded header reads and idle keep-alives: one slow or silent client
	// must never pin a connection (and its goroutine) forever.
	f.srv = &http.Server{
		Handler:           f.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	f.bg.Add(1 + len(bg))
	go func() {
		defer f.bg.Done()
		f.srv.Serve(ln) //nolint:errcheck // ErrServerClosed after Shutdown
	}()
	for _, run := range bg {
		go func() {
			defer f.bg.Done()
			run(f.quit)
		}()
	}
	return nil
}

// Addr returns the bound address after Start.
func (f *Front) Addr() string {
	if f.ln == nil {
		return ""
	}
	return f.ln.Addr().String()
}

// Shutdown drains in the order Front states and returns after every
// goroutine Start began has. Safe to call more than once.
func (f *Front) Shutdown(ctx context.Context) error {
	f.once.Do(func() {
		f.draining.Store(true)
		if f.srv != nil {
			f.err = f.srv.Shutdown(ctx)
			close(f.quit)
		}
		f.bg.Wait()
	})
	return f.err
}

// Draining reports whether Shutdown has begun.
func (f *Front) Draining() bool { return f.draining.Load() }

// Refuse answers 503 — "draining" once Shutdown has begun, else the reason
// the owner is unhealthy — and reports whether it did.
func (f *Front) Refuse(w http.ResponseWriter) bool {
	msg := "draining"
	if !f.draining.Load() {
		if f.health == nil {
			return false
		}
		if msg = f.health(); msg == "" {
			return false
		}
	}
	http.Error(w, msg, http.StatusServiceUnavailable)
	return true
}

// Shed answers a shed request: 429 with msg, and a one-second retry hint so
// the client backs off before it retries.
func Shed(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", "1")
	http.Error(w, msg, http.StatusTooManyRequests)
}
