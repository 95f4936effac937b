// Command earmac-serve is a long-running experiment service: it accepts
// façade Configs as JSON over HTTP, executes them on a shared bounded
// worker pool with per-job cancellation, streams interim progress
// snapshots, and memoizes every completed Report in a content-addressed
// cache keyed by Config.Fingerprint — re-submitting an identical config
// returns the cached report byte-identically without re-simulating.
//
// Usage:
//
//	earmac-serve -addr :8321 -parallel 4
//
//	# synchronous run (second call is a cache hit, byte-identical)
//	curl -s -X POST localhost:8321/v1/run -d '{"algorithm":"orchestra","n":8,"rounds":200000}'
//
//	# asynchronous: submit, stream progress, fetch the result
//	curl -s -X POST localhost:8321/v1/jobs -d '{"algorithm":"k-cycle","n":9,"k":3,"rounds":5000000}'
//	curl -sN localhost:8321/v1/jobs/<id>/stream
//	curl -s localhost:8321/v1/jobs/<id>/result
//
// With -cache-dir the result cache gains a disk tier: completed reports
// survive restarts and POST /v1/cache/preload warms the memory tier.
//
// SIGTERM (and the first SIGINT) drains: submissions are refused,
// queued jobs are cancelled without running, in-flight simulations run
// to completion before the process exits. A second signal, or the
// -drain-timeout deadline, cancels in-flight jobs hard.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux, served only via -pprof
	"os"
	"os/signal"
	"syscall"
	"time"

	"earmac/internal/service"
)

func main() {
	var (
		addr      = flag.String("addr", ":8321", "listen address")
		parallel  = flag.Int("parallel", 0, "simulation workers: jobs that run at once (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 64, "maximum queued jobs before submissions get 503 + Retry-After")
		cacheN    = flag.Int("cache", 1024, "maximum in-memory cached results (content-addressed, LRU eviction)")
		cacheDir  = flag.String("cache-dir", "", "directory for the disk cache tier (results survive restarts; empty = memory only)")
		netWork   = flag.Int("net-workers", 1, "channel-stepping workers per network job (0 = GOMAXPROCS, 1 = serial; results are identical at any value). The default stays serial because -parallel already runs jobs concurrently")
		timeout   = flag.Duration("drain-timeout", time.Minute, "how long a drain waits for in-flight jobs before cancelling them")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this separate address (e.g. localhost:6060; empty = off)")
	)
	flag.Parse()

	// The debug endpoints live on their own listener so the profiling
	// surface is never exposed on the service address; net/http/pprof
	// registers on the default mux, which nothing else uses.
	if *pprofAddr != "" {
		go func() {
			fmt.Fprintf(os.Stderr, "earmac-serve: pprof on http://%s/debug/pprof/\n", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "earmac-serve: pprof:", err)
			}
		}()
	}

	svc := service.New(service.Options{
		Workers:      *parallel,
		QueueDepth:   *queue,
		CacheEntries: *cacheN,
		CacheDir:     *cacheDir,
		NetWorkers:   *netWork,
	})
	svc.Start()
	httpSrv := &http.Server{Addr: *addr, Handler: svc}

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "earmac-serve: listening on %s\n", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "earmac-serve:", err)
		os.Exit(1)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "earmac-serve: %v: draining (in-flight jobs finish, queued jobs are cancelled; signal again to cancel hard)\n", sig)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *timeout)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "earmac-serve: second signal: cancelling in-flight jobs")
		cancel()
	}()
	if err := svc.Drain(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "earmac-serve: drain cut short:", err)
	}
	cancel()

	shutCtx, cancelShut := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelShut()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "earmac-serve:", err)
	}
	fmt.Fprintln(os.Stderr, "earmac-serve: drained, bye")
}
