// Command dpserve is the long-lived checking service: it exposes the dining
// engine's streaming surfaces — property checking, Monte-Carlo trials and
// sweep grids — over HTTP as newline-delimited JSON, backed by a
// fingerprint-keyed cache of explored state spaces. Repeated or concurrent
// requests for the same engine configuration share one exploration; hot
// configurations are answered from the cache without re-exploring.
//
// Usage:
//
//	dpserve                          # listen on :8099
//	dpserve -addr :0                 # pick a free port (printed on stdout)
//	dpserve -cache-states 5000000    # grow the state-space cache budget
//	dpserve -workers 8 -shards 8     # defaults for requests that leave them 0
//	dpserve -max-request-states 200000  # admission cap: reject larger /v1/check requests (422)
//	dpserve -drain 30s               # graceful-shutdown drain timeout
//
//	curl -d '{"topology":"ring","n":3,"algorithm":"LR1"}' localhost:8099/v1/check
//	curl -d '{"topology":"ring","n":3,"algorithm":"LR1","faults":"delayed-grants:0.5,2","props":["progress-under-faults"]}' localhost:8099/v1/check
//	curl -d '{"topology":"ring","n":3,"algorithm":"GDP1","trials":10}' localhost:8099/v1/trials
//	curl localhost:8099/v1/stats
//
// See the internal/serve package documentation for the endpoint list, the
// NDJSON schema and the fingerprinting rules. On SIGINT/SIGTERM the server
// stops accepting connections, drains in-flight responses for -drain, then
// cancels any still-running explorations and exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/serve"
)

// Server timeouts. ReadHeaderTimeout stops a client that opens a
// connection and never finishes its request headers from holding it (and a
// goroutine) forever; IdleTimeout closes keep-alive connections left idle
// between requests. There is deliberately no WriteTimeout: /v1/* responses
// stream NDJSON for as long as a check, trial run or sweep takes.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	cfg := cli.Config{Addr: ":8099", Drain: 15 * time.Second}
	cfg.Register(flag.CommandLine, cli.FlagWorkers|cli.FlagShards|cli.FlagServe)
	flag.Parse()
	if err := cfg.Validate(); err != nil {
		cli.Fatal("dpserve", err)
	}
	if err := run(&cfg); err != nil {
		cli.Fatal("dpserve", err)
	}
}

func run(cfg *cli.Config) error {
	// baseCtx bounds cache-filling explorations; it outlives any single
	// request and is cancelled only after the drain window, so a client
	// disconnect never kills work other requests share.
	baseCtx, cancelExplorations := context.WithCancel(context.Background())
	defer cancelExplorations()

	srv := serve.New(serve.Options{
		CacheStates:      cfg.CacheStates,
		Workers:          cfg.Workers,
		Shards:           cfg.Shards,
		MaxRequestStates: cfg.MaxRequestStates,
		BaseContext:      baseCtx,
	})
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return err
	}
	fmt.Printf("dpserve: listening on %s\n", ln.Addr())

	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		return err
	case <-sigCtx.Done():
	}

	// Graceful shutdown: stop accepting, drain streaming responses for the
	// configured window, then cancel explorations so nothing is left running.
	fmt.Printf("dpserve: shutting down, draining for up to %v\n", cfg.Drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.Drain)
	defer cancel()
	err = httpSrv.Shutdown(drainCtx)
	cancelExplorations()
	if errors.Is(err, context.DeadlineExceeded) {
		fmt.Println("dpserve: drain timeout exceeded; closing remaining connections")
		return httpSrv.Close()
	}
	return err
}
