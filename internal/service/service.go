// Package service is the experiment-serving layer behind cmd/earmac-serve:
// a long-running daemon that accepts façade Configs over HTTP, executes
// them on a shared bounded worker pool with per-job cancellation, streams
// interim Progress snapshots, and stores every completed Report in a
// content-addressed cache keyed by Config.Fingerprint — re-submitting an
// identical config returns the cached report byte-identically without
// re-simulating.
//
// Lifecycle: New builds the server, Start launches the executor, Drain
// stops dispatch (in-flight runs finish; queued jobs are cancelled) —
// the SIGTERM path of cmd/earmac-serve. The executor is pool.Run, so
// drain inherits the pool's deterministic cancellation contract: once
// the drain context fires, no queued job can be dispatched.
package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"earmac"
	"earmac/internal/pool"
	"earmac/internal/report"
)

// Options tunes a Server. The zero value selects the documented
// defaults.
type Options struct {
	// Workers bounds the simulation worker pool; <= 0 means GOMAXPROCS
	// (resolved through pool.Workers like every other -parallel knob).
	Workers int
	// QueueDepth bounds the number of accepted-but-not-yet-running jobs;
	// a full queue rejects submissions with 503 + Retry-After. Default 64.
	QueueDepth int
	// CacheEntries bounds the in-memory tier of the content-addressed
	// result cache (LRU eviction past the bound). Default 1024.
	CacheEntries int
	// CacheDir, when non-empty, enables the disk tier: every completed
	// result is spilled to <dir>/<hex>.report atomically, memory misses
	// fall through to disk, and POST /v1/cache/preload warms the LRU
	// from the directory. Results survive restarts.
	CacheDir string
	// NetWorkers sets Config.NetWorkers on every executed job: the
	// channel-stepping parallelism of network runs (0 = GOMAXPROCS,
	// 1 = serial). Runtime-only — results and fingerprints are
	// identical at any value, so it never affects cache keys.
	NetWorkers int
}

func (o Options) withDefaults() Options {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 1024
	}
	return o
}

// Server is the experiment service. It implements http.Handler; the
// caller owns the listener (net/http, httptest, ...).
type Server struct {
	opts  Options
	mux   *http.ServeMux
	cache *Cache
	queue chan *job

	mu       sync.Mutex
	started  bool
	live     map[string]*job // fingerprint → queued or running job
	recent   map[string]*job // terminal non-cached jobs (failed/cancelled), bounded FIFO
	order    []string        // recent insertion order, for eviction
	draining bool
	// Cumulative terminal-state tallies (each job counted exactly once,
	// at first retire); the healthz per-state job counters.
	doneJobs, failedJobs, cancelledJobs int64

	dispatchCtx  context.Context
	stopDispatch context.CancelFunc
	execDone     chan struct{}
}

// recentCap bounds the terminal-job map that backs status queries for
// failed and cancelled jobs (done jobs live in the result cache).
const recentCap = 256

// New builds a Server. Call Start before serving requests.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	opts.Workers = pool.Workers(opts.Workers)
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:         opts,
		cache:        NewCache(opts.CacheEntries, opts.CacheDir),
		queue:        make(chan *job, opts.QueueDepth),
		live:         make(map[string]*job),
		recent:       make(map[string]*job),
		dispatchCtx:  ctx,
		stopDispatch: cancel,
		execDone:     make(chan struct{}),
	}
	s.routes()
	return s
}

// Start launches the executor: pool.Run dispatching queued jobs across
// the bounded worker pool until Drain cancels the dispatch context.
// Start must be called exactly once, before serving requests.
func (s *Server) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		panic("service: Start called twice")
	}
	s.started = true
	s.mu.Unlock()
	go func() {
		defer close(s.execDone)
		pool.Run(s.dispatchCtx, s.queue, s.opts.Workers, s.runJob)
	}()
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain gracefully stops the server: no new submissions are accepted,
// queued jobs are cancelled without running, and in-flight simulations
// run to completion (the pool's deterministic cancellation stops
// dispatch, never a running job). Drain returns when the executor has
// fully drained or ctx expires — on expiry the remaining running jobs
// are cancelled hard and Drain waits for them to unwind.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	started := s.started
	s.started = true // a drained server cannot be started
	s.mu.Unlock()
	s.stopDispatch()
	if !started {
		close(s.execDone) // no executor to wait for
	}
	var err error
	select {
	case <-s.execDone:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancelAll()
		<-s.execDone
	}
	// Jobs still queued after the executor stopped were never dispatched
	// (pool.Run never drops a received job, so they are all still
	// buffered in the channel — the live-map sweep below is a
	// belt-and-suspenders net). Close all of them out as cancelled so
	// waiters unblock.
flush:
	for {
		select {
		case j := <-s.queue:
			j.fail(StateCancelled, "server draining")
			s.retire(j)
		default:
			break flush
		}
	}
	s.mu.Lock()
	var undispatched []*job
	for _, j := range s.live {
		if state, _, _ := j.snapshot(); state == StateQueued {
			undispatched = append(undispatched, j)
		}
	}
	s.mu.Unlock()
	for _, j := range undispatched {
		j.fail(StateCancelled, "server draining")
		s.retire(j)
	}
	return err
}

// cancelAll hard-cancels every live job (the Drain-timeout path).
func (s *Server) cancelAll() {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.live))
	for _, j := range s.live {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.requestCancel()
	}
}

// Draining reports whether Drain has been initiated.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// errDraining is returned (as 503) for submissions during drain. It
// wraps the façade's typed conflict error: the submission is valid, the
// server's state conflicts with running it.
var errDraining = fmt.Errorf("%w: server is draining, not accepting new jobs", earmac.ErrConflict)

// errQueueFull is returned (as 503) when the admission queue is full.
var errQueueFull = errors.New("job queue is full, retry later")

// submit admits one validated config. It returns the config's
// fingerprint plus either a cache entry (cached true — no simulation)
// or the live job executing it, joining an existing identical
// submission when there is one: a fingerprint never has two live jobs.
func (s *Server) submit(cfg earmac.Config, record bool) (fp string, j *job, e Entry, cached bool, err error) {
	fp = cfg.Fingerprint()
	// A recording submission must run even if the report is cached but
	// the trace is not: only serve the cache when it satisfies the
	// request.
	if e, ok := s.cache.Peek(fp); ok && (!record || e.Trace != nil) {
		s.cache.MarkHit()
		return fp, nil, e, true, nil
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return fp, nil, Entry{}, false, errDraining
	}
	if j, ok := s.live[fp]; ok {
		if j.terminal() {
			// A corpse: cancelled while queued and not yet popped by a
			// worker. A resubmission starts fresh instead of joining it.
			delete(s.live, fp)
		} else if !record || j.enableRecord() {
			// Join the live job. A record request can still be honoured
			// while the job is queued (the flag flips before dispatch).
			// Joining is deduplication too: count it as a hit.
			s.mu.Unlock()
			s.cache.MarkHit()
			return fp, j, Entry{}, false, nil
		} else {
			// Running without recording: a second concurrent run of the
			// same fingerprint would break the dedup invariant, so the
			// trace request conflicts until the run completes.
			s.mu.Unlock()
			return fp, nil, Entry{}, false, fmt.Errorf(
				"%w: an identical experiment is already running without trace recording; retry once it completes", earmac.ErrConflict)
		}
	}
	j = newJob(fp, cfg, record)
	s.live[fp] = j
	s.mu.Unlock()
	select {
	case s.queue <- j:
		s.cache.MarkMiss()
		return fp, j, Entry{}, false, nil
	default:
		// Roll back through the job's terminal machinery, not just the
		// live map: a concurrent identical submission may already have
		// joined j in the window since we published it, and must observe
		// a terminal state rather than wait forever on a job that was
		// never enqueued.
		j.fail(StateFailed, errQueueFull.Error())
		s.retire(j)
		return fp, nil, Entry{}, false, errQueueFull
	}
}

// runJob executes one dispatched job on a pool worker.
func (s *Server) runJob(j *job) {
	// pool.Run never loses a received job, at the price of dispatching at
	// most one job after its context fires; the service's drain promise —
	// no queued job starts after the signal — is enforced here instead.
	if s.Draining() {
		j.fail(StateCancelled, "server draining")
		s.retire(j)
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if !j.start(cancel) {
		s.retire(j) // cancelled while queued
		return
	}
	record := j.recording() // fixed now that the job has started
	cfg := j.cfg
	cfg.OnProgress = j.publish
	cfg.NetWorkers = s.opts.NetWorkers
	var traceBuf bytes.Buffer
	if record {
		cfg.RecordTo = &traceBuf
	}
	rep, err := earmac.RunContext(ctx, cfg)
	switch {
	case err == nil:
		raw := canonicalReport(rep)
		var tr []byte
		if record {
			tr = traceBuf.Bytes()
		}
		// Store before publishing completion: from the first moment a
		// waiter can observe "done" the cache already serves the bytes.
		s.cache.Put(j.id, Entry{Report: raw, Trace: tr})
		j.complete(raw, tr)
	case errors.Is(err, context.Canceled):
		j.fail(StateCancelled, "cancelled after "+fmt.Sprint(rep.Rounds)+" rounds")
	default:
		j.fail(StateFailed, err.Error())
	}
	s.retire(j)
}

// retire moves a terminal job out of the live map; failed and cancelled
// jobs stay queryable in the bounded recent map (done jobs are served
// from the cache).
func (s *Server) retire(j *job) {
	state, _, _ := j.snapshot()
	counted := j.markCounted()
	s.mu.Lock()
	defer s.mu.Unlock()
	if counted {
		switch state {
		case StateDone:
			s.doneJobs++
		case StateFailed:
			s.failedJobs++
		case StateCancelled:
			s.cancelledJobs++
		}
	}
	if s.live[j.id] == j {
		delete(s.live, j.id)
	}
	if state == StateDone {
		// A successful run supersedes any stale failed/cancelled record of
		// the same fingerprint: status must agree with the cached result,
		// not report a failure that a re-run has since recovered from.
		if _, ok := s.recent[j.id]; ok {
			delete(s.recent, j.id)
			s.order = removeKey(s.order, j.id)
		}
		return
	}
	// The converse supersession: once a successful run of this
	// fingerprint is cached, a late-retiring failure (e.g. a cancelled
	// corpse popped from the queue after a fresh resubmission completed)
	// must not shadow it in status responses.
	if _, ok := s.cache.Peek(j.id); ok {
		return
	}
	if _, ok := s.recent[j.id]; !ok {
		for len(s.recent) >= recentCap {
			oldest := s.order[0]
			s.order = s.order[1:]
			delete(s.recent, oldest)
		}
		s.order = append(s.order, j.id)
	}
	s.recent[j.id] = j
}

// removeKey deletes one occurrence of key, preserving order. s.order
// mirrors s.recent's keys exactly (the FIFO invariant eviction relies
// on), so supersession must remove the slot, not just the map entry.
func removeKey(order []string, key string) []string {
	for i, k := range order {
		if k == key {
			return append(order[:i], order[i+1:]...)
		}
	}
	return order
}

// lookup finds a job by fingerprint: live first, then recent terminal.
func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.live[id]; ok {
		return j, true
	}
	j, ok := s.recent[id]
	return j, ok
}

// counts returns the live-job tally by state.
func (s *Server) counts() (queued, running int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.live {
		switch state, _, _ := j.snapshot(); state {
		case StateQueued:
			queued++
		case StateRunning:
			running++
		}
	}
	return
}

// tallies returns the cumulative terminal-state job counters.
func (s *Server) tallies() (done, failed, cancelled int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.doneJobs, s.failedJobs, s.cancelledJobs
}

// retryAfterSeconds derives a Retry-After hint for a queue-full 503
// from the current backlog: roughly the queue depth divided by the
// worker count (how many "queue drain slots" precede the retry),
// clamped to [1, 60]. Retry-After is standard HTTP, so any client that
// retries politely can honour it without knowing this service.
func (s *Server) retryAfterSeconds() int {
	queued, _ := s.counts()
	secs := queued / s.opts.Workers
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// canonicalReport fixes the byte representation every endpoint serves
// for a Report: report.CanonicalJSON (compact marshal + newline). The
// cache stores these exact bytes, which is what makes the
// byte-identical guarantee checkable with cmp.
func canonicalReport(rep earmac.Report) []byte {
	return report.CanonicalJSON(rep)
}
