package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"earmac"
	"earmac/internal/report"
	"earmac/internal/service"
)

// defaultSeed is the seed whose per-workload report digests are
// committed in digests.
const defaultSeed = 1

// digests pins each workload's pass-0 report digest at defaultSeed.
// A change that alters any simulated result changes the digest; update
// the value only together with the change that explains it.
var digests = map[string]string{
	"table-checked": "dfeeafdca59ec0fc",
	"sweep-fast":    "e5627be287d779cb",
	"net-relay":     "6d33ed4a05b96f33",
	"serve-run":     "79901f5ca24b3532",
}

// nproc bounds every pool the benchmark configures: Suite workers,
// network workers, service workers, and HTTP clients.
var nproc = runtime.NumCPU()

func newWorkload(opts options) (workload, error) {
	rng := rand.New(rand.NewSource(opts.seed))
	adjust := opts.adjust
	if adjust == nil {
		adjust = func(c earmac.Config) earmac.Config { return c }
	}
	switch opts.workload {
	case "table-checked":
		return newTableChecked(rng, adjust), nil
	case "sweep-fast":
		return newSweepFast(rng, adjust), nil
	case "net-relay":
		return newNetRelay(rng, adjust), nil
	case "serve-run":
		return newServeRun(rng, adjust), nil
	}
	return nil, fmt.Errorf("unknown workload %q", opts.workload)
}

// canonical is the byte form every report is compared and hashed in —
// the service's response encoding.
func canonical(rep earmac.Report) []byte { return report.CanonicalJSON(rep) }

func elapsedMs(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// ---- table-checked -------------------------------------------------

// tableRows are the paper's algorithms at their Table 1 rates (the
// stable rows, one per algorithm), at horizons of about 20 ms each;
// orchestra runs twice as long, so the heaviest sixth of the ops is one
// row and op_p90_ms falls inside it rather than between two rows.
// Zero-value Strict and DisableChecks keep Run's defaults: the checked
// loop with conservation checks every 10007 rounds.
var tableRows = []earmac.Config{
	{Algorithm: "orchestra", N: 6, K: 3, RhoNum: 1, RhoDen: 1, Beta: 2, Rounds: 40000},
	{Algorithm: "count-hop", N: 6, K: 3, RhoNum: 1, RhoDen: 2, Beta: 2, Rounds: 30000},
	{Algorithm: "adjust-window", N: 4, K: 3, RhoNum: 1, RhoDen: 2, Beta: 2, Rounds: 25000},
	{Algorithm: "k-cycle", N: 7, K: 3, RhoNum: 1, RhoDen: 4, Beta: 2, Rounds: 45000},
	{Algorithm: "k-clique", N: 8, K: 4, RhoNum: 1, RhoDen: 12, Beta: 2, Rounds: 35000},
	{Algorithm: "k-subsets", N: 6, K: 3, RhoNum: 1, RhoDen: 5, Beta: 2, Rounds: 40000},
}

// tableSeeds is how many pattern seeds each row runs per pass: enough
// that a pass's work barely depends on the workload seed.
const tableSeeds = 6

type tableChecked struct{ cfgs []earmac.Config }

func newTableChecked(rng *rand.Rand, adjust func(earmac.Config) earmac.Config) *tableChecked {
	w := &tableChecked{}
	for s := 0; s < tableSeeds; s++ {
		for _, row := range tableRows {
			c := row
			c.Pattern = "uniform"
			c.Seed = 1 + rng.Int63n(1<<30)
			w.cfgs = append(w.cfgs, adjust(c))
		}
	}
	return w
}

func (w *tableChecked) distinct() []earmac.Config    { return w.cfgs }
func (w *tableChecked) open() (time.Duration, error) { return 0, nil }
func (w *tableChecked) close()                       {}

func (w *tableChecked) pass(p int, m *meter) {
	for i, cfg := range w.cfgs {
		m.beforeOp()
		var rep earmac.Report
		var err error
		ms := m.tr.facade("earmac.Run", int64(i), func() time.Duration {
			t := time.Now()
			rep, err = earmac.Run(cfg)
			return time.Since(t)
		})
		raw := canonical(rep)
		m.record(opResult{pass: p, index: i, key: int64(i), ms: ms, chRounds: cfg.Rounds, report: raw, err: err})
		if err == nil && m.tr != nil {
			if terr := m.tr.single(int64(i), cfg, raw); terr != nil {
				m.fail("traced op %d: %v", i, terr)
			}
		}
	}
}

// ---- sweep-fast ----------------------------------------------------

// sweepSeeds is how many seeds each grid point runs, as earmac-sweep
// -seeds crosses them: enough that a pass's work barely depends on the
// workload seed.
const sweepSeeds = 5

// sweepConfigs builds a grid shaped like the ones earmac-sweep builds:
// Lenient and DisableChecks (the fast path), rates from sparse (where
// the quiescence engine skips idle spans) to near-critical, plus the
// energy-frontier cells of duty-cycled aloha under a jammer.
func sweepConfigs(rng *rand.Rand) []earmac.Config {
	seeds := make([]int64, sweepSeeds)
	for i := range seeds {
		seeds[i] = 1 + rng.Int63n(1<<30)
	}
	grid := earmac.Grid{
		Seeds:      seeds,
		Algorithms: []string{"orchestra", "count-hop", "k-cycle", "k-subsets"},
		Rhos: []earmac.Rho{
			{Num: 1, Den: 1024}, {Num: 1, Den: 256}, {Num: 1, Den: 32},
			{Num: 1, Den: 4}, {Num: 1, Den: 2}, {Num: 9, Den: 10},
		},
		Base: earmac.Config{
			N: 6, K: 3, Beta: 2, Pattern: "uniform", Rounds: 24000,
			Lenient: true, DisableChecks: true,
		},
	}
	cfgs := grid.Configs()
	base := earmac.Config{
		Algorithm: "aloha", N: 6, K: 3, RhoNum: 1, RhoDen: 4, Beta: 2,
		Pattern: "bernoulli", Rounds: 30000, Lenient: true, DisableChecks: true,
	}
	for _, jam := range []int64{8, 4} {
		for _, idle := range []int64{0, 32, 8} {
			c := base
			c.Seed = 1 + rng.Int63n(1<<30)
			c.JamRhoNum, c.JamRhoDen, c.JamBeta = 1, jam, 1
			if idle > 0 {
				c.SleepAfterIdle, c.WakeEvery = idle, 64
			}
			cfgs = append(cfgs, c)
		}
	}
	return cfgs
}

type sweepFast struct{ cfgs []earmac.Config }

func newSweepFast(rng *rand.Rand, adjust func(earmac.Config) earmac.Config) *sweepFast {
	w := &sweepFast{}
	for _, c := range sweepConfigs(rng) {
		w.cfgs = append(w.cfgs, adjust(c))
	}
	return w
}

func (w *sweepFast) distinct() []earmac.Config    { return w.cfgs }
func (w *sweepFast) open() (time.Duration, error) { return 0, nil }
func (w *sweepFast) close()                       {}

// completion is one Suite cell's OnResult event.
type completion struct {
	res earmac.SuiteResult
	at  time.Time
}

func (w *sweepFast) pass(p int, m *meter) {
	var mu sync.Mutex
	done := make([]completion, 0, len(w.cfgs))
	var start time.Time
	m.beforeOp()
	m.tr.facade("earmac.Suite.Run", -1, func() time.Duration {
		start = time.Now()
		_, err := earmac.Suite{Configs: w.cfgs}.Run(context.Background(), earmac.SuiteOptions{
			Workers: nproc,
			OnResult: func(r earmac.SuiteResult) {
				mu.Lock()
				done = append(done, completion{r, time.Now()})
				mu.Unlock()
			},
		})
		if err != nil {
			m.fail("pass %d: suite: %v", p, err)
		}
		return time.Since(start)
	})
	// The pool hands cell i to the worker that reported completion
	// i-W (cells are dispatched in index order, one per free worker),
	// so a cell's start is that completion's time.
	workers := min(nproc, len(w.cfgs))
	starts := make([]time.Time, len(w.cfgs))
	for i := range starts {
		if i < workers {
			starts[i] = start
		} else if i-workers < len(done) {
			starts[i] = done[i-workers].at
		}
	}
	for _, d := range done {
		r, cfg := d.res, w.cfgs[d.res.Index]
		raw := canonical(r.Report)
		var err error
		switch {
		case r.Verdict == earmac.VerdictError || r.Verdict == earmac.VerdictSkipped:
			err = fmt.Errorf("cell %s: %s", r.Verdict, r.Error)
		case r.Report.Injected != r.Report.Delivered+r.Report.FinalQueue+r.Report.Dropped:
			err = fmt.Errorf("conservation: injected %d != delivered %d + queued %d + dropped %d",
				r.Report.Injected, r.Report.Delivered, r.Report.FinalQueue, r.Report.Dropped)
		}
		m.record(opResult{
			pass: p, index: r.Index, key: int64(r.Index), ms: float64(d.at.Sub(starts[r.Index])) / 1e6,
			chRounds: cfg.Rounds, report: raw, err: err,
		})
	}
	if len(done) != len(w.cfgs) {
		m.fail("pass %d: %d of %d cells reported", p, len(done), len(w.cfgs))
	}
	if m.tr != nil {
		m.tr.suite(start, done, starts, workers)
		for _, d := range done {
			if err := m.tr.single(int64(d.res.Index), w.cfgs[d.res.Index], canonical(d.res.Report)); err != nil {
				m.fail("traced cell %d: %v", d.res.Index, err)
			}
		}
	}
}

// ---- net-relay -----------------------------------------------------

// netSmall are the sustained-load topologies, sized to about the same
// channel-rounds per op; netLarge is the ≥1024-channel op, one per pass
// (5% of ops, so p90 falls among the small ops, clear of the boundary).
var (
	netSmall = []struct {
		kind     string
		channels int
		rounds   int64
	}{
		{"line", 16, 3000}, {"grid", 16, 3000}, {"random", 16, 3000},
		{"line", 32, 1500}, {"grid", 32, 1500}, {"random", 32, 1500},
		{"line", 64, 800}, {"grid", 64, 800}, {"random", 64, 800},
	}
	netLarge = struct {
		kind     string
		channels int
		rounds   int64
	}{"grid", 1024, 200}
)

// netSeeds is how many seeds each small topology runs per pass.
const netSeeds = 2

type netRelay struct{ cfgs []earmac.Config }

func netConfig(kind string, channels int, rounds, seed int64) earmac.Config {
	return earmac.Config{
		Algorithm: "orchestra", N: 4, K: 3, RhoNum: 1, RhoDen: 1, Beta: int64(channels),
		Pattern: "bernoulli", Topology: kind, Channels: channels, Rounds: rounds, Seed: seed,
		Lenient: true, DisableChecks: true,
	}
}

func newNetRelay(rng *rand.Rand, adjust func(earmac.Config) earmac.Config) *netRelay {
	w := &netRelay{}
	for s := 0; s < netSeeds; s++ {
		for _, t := range netSmall {
			w.cfgs = append(w.cfgs, adjust(netConfig(t.kind, t.channels, t.rounds, 1+rng.Int63n(1<<30))))
		}
	}
	// The large op goes mid-pass so passes cut short still include it.
	large := adjust(netConfig(netLarge.kind, netLarge.channels, netLarge.rounds, 1+rng.Int63n(1<<30)))
	mid := len(w.cfgs) / 2
	w.cfgs = append(w.cfgs[:mid], append([]earmac.Config{large}, w.cfgs[mid:]...)...)
	return w
}

func (w *netRelay) distinct() []earmac.Config    { return w.cfgs }
func (w *netRelay) open() (time.Duration, error) { return 0, nil }
func (w *netRelay) close()                       {}

// recording is one record+replay op's outcome.
type recording struct {
	report               []byte
	trace                *earmac.Trace
	read, record, replay time.Duration
}

// recordReplay records cfg through sink into buf, reads the trace back,
// and replays it; the replayed report must match the recorded one byte
// for byte.
func recordReplay(cfg earmac.Config, sink io.Writer, buf *bytes.Buffer) (recording, error) {
	var r recording
	c := cfg
	c.RecordTo = sink
	t := time.Now()
	rec, err := earmac.Run(c)
	r.record = time.Since(t)
	if err != nil {
		return r, fmt.Errorf("record: %w", err)
	}
	t = time.Now()
	r.trace, err = earmac.ReadTrace(bytes.NewReader(buf.Bytes()))
	r.read = time.Since(t)
	if err != nil {
		return r, fmt.Errorf("read trace: %w", err)
	}
	rc, err := earmac.ReplayConfig(r.trace)
	if err != nil {
		return r, fmt.Errorf("replay config: %w", err)
	}
	t = time.Now()
	rep, err := earmac.Run(rc)
	r.replay = time.Since(t)
	if err != nil {
		return r, fmt.Errorf("replay: %w", err)
	}
	r.report = canonical(rec)
	if !bytes.Equal(r.report, canonical(rep)) {
		return r, fmt.Errorf("replayed report differs from the recorded one")
	}
	return r, nil
}

func (w *netRelay) pass(p int, m *meter) {
	for i, cfg := range w.cfgs {
		m.beforeOp()
		var buf bytes.Buffer
		var out io.Writer = &buf
		var sk *sink
		if m.tr != nil {
			sk = &sink{buf: &buf}
			out = sk
		}
		var r recording
		var err error
		ms := m.tr.facade("record+replay", int64(i), func() time.Duration {
			t := time.Now()
			r, err = recordReplay(cfg, out, &buf)
			return time.Since(t)
		})
		m.record(opResult{
			pass: p, index: i, key: int64(i), ms: ms,
			chRounds: 2 * cfg.Rounds * int64(cfg.Channels), report: r.report, err: err,
		})
		if err == nil && m.tr != nil {
			m.tr.scenario(cfg.Rounds, sk, r)
			if terr := m.tr.network(int64(i), cfg, r.trace); terr != nil {
				m.fail("traced op %d: %v", i, terr)
			}
		}
	}
}

// ---- serve-run -----------------------------------------------------

// serveTemplates are short strict simulations: what a miss costs. Their
// horizons give each about the same cost (6 ms on a 2-core VM), so the
// miss latencies form one group rather than four.
var serveTemplates = []earmac.Config{
	{Algorithm: "orchestra", N: 6, K: 3, RhoNum: 1, RhoDen: 1, Beta: 2, Rounds: 6000},
	{Algorithm: "count-hop", N: 6, K: 3, RhoNum: 1, RhoDen: 2, Beta: 2, Rounds: 8000},
	{Algorithm: "k-cycle", N: 7, K: 3, RhoNum: 1, RhoDen: 4, Beta: 2, Rounds: 8500},
	{Algorithm: "k-subsets", N: 6, K: 3, RhoNum: 1, RhoDen: 5, Beta: 2, Rounds: 11000},
}

const (
	// serveBlock is the number of requests in one pass.
	serveBlock = 64
	// serveNew is how many of them carry a config new to the service
	// (misses, each template equally often); the rest repeat one of
	// them (hits). Misses are a fixed large majority, so op_p50_ms and
	// op_p90_ms both fall well inside them, clear of the hit/miss
	// boundary: sub-millisecond hit latency swings with the host's
	// scheduling far more than the miss path does. service.hit_p50_ms
	// reports hits.
	serveNew = 56
	// serveGap is how far back a repeat looks at least, so with nproc
	// clients its original has usually completed: a hit, not a join.
	serveGap = 4
)

// request is one entry of a pass's request sequence.
type request struct {
	ref  int // index of the request whose config this one repeats (itself for a new config)
	tmpl int
	seed int64
}

type serveRun struct {
	seq    []request // one pass's shape, reused with fresh seeds every pass
	adjust func(earmac.Config) earmac.Config
	srv    *service.Server
	hs     *httptest.Server
	client *http.Client
}

func newServeRun(rng *rand.Rand, adjust func(earmac.Config) earmac.Config) *serveRun {
	w := &serveRun{adjust: adjust}
	// The first serveGap requests are new; the other new ones land at
	// seeded positions among the rest.
	isNew := make([]bool, serveBlock)
	for i := 0; i < serveGap; i++ {
		isNew[i] = true
	}
	for _, i := range rng.Perm(serveBlock - serveGap)[:serveNew-serveGap] {
		isNew[serveGap+i] = true
	}
	var fresh []int
	for i := 0; i < serveBlock; i++ {
		if isNew[i] {
			fresh = append(fresh, i)
			w.seq = append(w.seq, request{ref: i, tmpl: len(fresh) % len(serveTemplates), seed: 1 + rng.Int63n(1<<30)})
			continue
		}
		old := fresh
		for len(old) > 1 && old[len(old)-1] > i-serveGap {
			old = old[:len(old)-1]
		}
		w.seq = append(w.seq, request{ref: old[rng.Intn(len(old))]})
	}
	return w
}

// config returns request i of pass p. A pass shifts every seed, so
// each pass's new configs miss the cache and its repeats hit it.
func (w *serveRun) config(p, i int) earmac.Config {
	r := w.seq[w.seq[i].ref]
	c := serveTemplates[r.tmpl]
	c.Pattern = "uniform"
	c.Seed = r.seed + int64(p)*(1<<31)
	return w.adjust(c)
}

func (w *serveRun) distinct() []earmac.Config {
	out := make([]earmac.Config, len(serveTemplates))
	for i, c := range serveTemplates {
		c.Pattern = "uniform"
		out[i] = w.adjust(c)
	}
	return out
}

// open starts an in-process service behind httptest: no disk cache,
// nproc simulation workers, and a client holding at most nproc
// connections.
func (w *serveRun) open() (time.Duration, error) {
	t := time.Now()
	w.srv = service.New(service.Options{Workers: nproc, NetWorkers: nproc})
	w.srv.Start()
	w.hs = httptest.NewServer(w.srv)
	d := time.Since(t)
	w.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: nproc,
		MaxConnsPerHost:     nproc,
	}}
	return d, nil
}

func (w *serveRun) close() {
	if w.hs == nil {
		return
	}
	w.client.CloseIdleConnections()
	w.hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = w.srv.Drain(ctx) // every request has completed; nothing is in flight
	w.hs, w.srv = nil, nil
}

// reply is one response.
type reply struct {
	body  []byte
	hit   bool
	ms    float64
	start time.Time
	err   error
}

func (w *serveRun) post(body []byte) reply {
	t := time.Now()
	resp, err := w.client.Post(w.hs.URL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	r := reply{body: out, hit: resp.Header.Get("X-Earmac-Cache") == "hit", ms: elapsedMs(t), start: t, err: err}
	if err == nil && resp.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	return r
}

// pass runs one block as a closed loop: nproc clients, each sending its
// next request only after the previous reply arrived.
func (w *serveRun) pass(p int, m *meter) {
	cfgs := make([]earmac.Config, len(w.seq))
	bodies := make([][]byte, len(w.seq))
	for i := range w.seq {
		cfgs[i] = w.config(p, i)
		raw, err := json.Marshal(cfgs[i])
		if err != nil {
			m.fail("encoding request %d: %v", i, err)
			return
		}
		bodies[i] = raw
	}
	replies := make([]reply, len(w.seq))
	m.beforeOp()
	m.tr.facade("POST /v1/run x"+fmt.Sprint(len(w.seq)), -1, func() time.Duration {
		t := time.Now()
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < nproc; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < len(w.seq); i = int(next.Add(1) - 1) {
					replies[i] = w.post(bodies[i])
				}
			}()
		}
		wg.Wait()
		return time.Since(t)
	})
	for i, r := range replies {
		ref := w.seq[i].ref
		var rounds int64
		if ref == i {
			rounds = cfgs[i].Rounds // the first occurrence is the one simulated
		}
		m.record(opResult{
			pass: p, index: i, key: int64(p)*serveBlock + int64(ref), ms: r.ms,
			chRounds: rounds, report: r.body, err: r.err,
		})
	}
	if m.tr != nil {
		for i, r := range replies {
			if r.err == nil {
				if err := m.tr.service(int64(p)*serveBlock+int64(i), cfgs[i], bodies[i], r, w.seq[i].ref == i); err != nil {
					m.fail("traced request %d: %v", i, err)
				}
			}
		}
	}
}
