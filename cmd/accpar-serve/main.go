// Command accpar-serve is the HTTP planning service: the accpar planning
// stack behind a JSON API, with the live diagnostics endpoints mounted on
// the same listener.
//
//	POST /v1/plan          partition a workload; the response is
//	                       byte-identical to `accpar -json` for the same
//	                       inputs
//	POST /v1/compare       all four strategies with speedups
//	POST /v1/resilience    simulated fault-injection experiment
//	GET  /metrics          Prometheus text exposition
//	GET  /metrics.json     metrics snapshot as JSON
//	GET  /healthz          liveness
//	GET  /readyz           readiness (503 while draining)
//	GET  /debug/events     structured decision-event ring
//	POST /debug/trace      live Perfetto trace window
//	GET  /debug/slowest    flight recorder: the N slowest requests
//	GET  /debug/pprof/...  net/http/pprof
//
// One planning Session (and plan cache) serves every request. SIGTERM or
// SIGINT flips /readyz to 503, drains in-flight requests and exits.
//
// The service is built to survive overload rather than melt: admission
// control bounds concurrent planning work (-max-concurrent, in weight
// units) with a bounded FIFO wait queue (-max-queue) behind it, and
// everything beyond both is shed immediately with 429 + Retry-After.
// Deadlines bound each request's planning work (-default-deadline, or
// per-request "timeout_ms"); expiry aborts the search mid-recursion and
// answers 504, and a client disconnect aborts it the same way. Request
// bodies are capped (-max-body, 413 beyond), handler panics become 500s,
// and the listener carries full read/write/idle timeouts.
//
// Every executed request plans under its own scoped tracer, so traces of
// concurrent requests never interleave; a request can ask for its own
// trace ("trace": true) or search-decision audit ("explain": true) in
// the response, and the always-on flight recorder retains the -slowest N
// requests — trace, audit and metadata — behind GET /debug/slowest.
//
// Usage:
//
//	accpar-serve -addr :8080
//	curl -s localhost:8080/v1/plan -d '{"model":"vgg16","batch":512}'
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"accpar"
	"accpar/internal/diag"
	"accpar/internal/obs"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address (\":0\" picks a free port)")
		version = flag.Bool("version", false, "print version and exit")

		maxConcurrent   = flag.Int64("max-concurrent", 0, "admission capacity in weight units (plan=1, compare/resilience=2); 0 selects 2×GOMAXPROCS")
		maxQueue        = flag.Int("max-queue", 64, "admission wait-queue bound; requests beyond it are shed with 429 (negative: unbounded)")
		retryAfter      = flag.Duration("retry-after", time.Second, "Retry-After hint sent with 429 responses")
		defaultDeadline = flag.Duration("default-deadline", 0, "per-request planning deadline when the request carries no timeout_ms (0: none); expiry answers 504")
		maxBody         = flag.Int64("max-body", 1<<20, "request-body byte bound; larger bodies answer 413")
		slowest         = flag.Int("slowest", 16, "flight recorder retains the N slowest requests behind /debug/slowest")
		readTimeout     = flag.Duration("read-timeout", 30*time.Second, "http.Server ReadTimeout (full request read)")
		writeTimeout    = flag.Duration("write-timeout", 2*time.Minute, "http.Server WriteTimeout (queue wait + planning + response write)")
		idleTimeout     = flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout (keep-alive connections)")
	)
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionString("accpar-serve"))
		return
	}
	cfg := serveConfig{
		MaxConcurrent:   *maxConcurrent,
		MaxQueue:        *maxQueue,
		RetryAfter:      *retryAfter,
		DefaultDeadline: *defaultDeadline,
		MaxBodyBytes:    *maxBody,
		Slowest:         *slowest,
	}
	if err := run(*addr, cfg, *readTimeout, *writeTimeout, *idleTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "accpar-serve:", err)
		os.Exit(1)
	}
}

func run(addr string, cfg serveConfig, readTimeout, writeTimeout, idleTimeout time.Duration) error {
	srv := newServer(accpar.NewSession(0), cfg)

	mux := http.NewServeMux()
	srv.routes(mux)
	diag.NewHandler(diag.Options{Ready: srv.readyChecks(), Recorder: srv.flight}).Routes(mux)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// WriteTimeout covers queue wait + planning + the response write, so
	// it is the hard backstop behind -default-deadline: even a request
	// that opted out of deadlines cannot hold a connection forever.
	hs := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	fmt.Printf("accpar-serve listening on %s\n", ln.Addr())
	obs.Log().Info("serve.listening", "addr", ln.Addr().String())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	select {
	case err := <-done:
		// Serve never returns nil; an early return is a listener failure.
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: stop advertising readiness, then drain in-flight
	// requests.
	srv.draining.Store(true)
	obs.Log().Info("serve.draining")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return err
	}
	fmt.Println("accpar-serve: drained, exiting")
	return nil
}
