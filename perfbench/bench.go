package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"earmac"
)

// options selects one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// adjust, when non-nil, rewrites every generated config before it
	// runs. The seeded-slowdown test swaps in a delaying pattern through
	// it; the command line never sets it.
	adjust func(earmac.Config) earmac.Config
}

// workload is one named set of ops. Its configs are a pure function of
// the seed; a pass runs the same op mix every time, so metrics taken
// over whole passes compare across runs.
type workload interface {
	// distinct lists the workload's distinct configs, whose one-round
	// set-up setup_s sums.
	distinct() []earmac.Config
	// open prepares per-run state outside the timed phase and returns
	// the time that counts toward setup_s (the service's start-up).
	open() (time.Duration, error)
	// close releases what open acquired.
	close()
	// pass runs pass p's ops, recording each in m.
	pass(p int, m *meter)
}

// opResult is one op's outcome.
type opResult struct {
	pass, index int   // position: pass p, op index within the pass
	key         int64 // ops with equal keys run equal configs
	ms          float64
	chRounds    int64 // simulated rounds × channels
	report      []byte
	err         error
}

// meter records every op of the timed phase and checks that equal
// configs give byte-identical reports.
type meter struct {
	mu        sync.Mutex
	lat       []float64
	chRounds  int64
	attempted int
	failed    int
	failures  []string
	ref       map[int64][32]byte // report hash per op key
	first     map[int][32]byte   // pass-0 report hash per op index
	tr        *tracer            // nil on an untraced run
	// probing marks the untimed memory pass: ops are checked and hashed
	// but not timed, and each starts from a collected, scavenged heap.
	probing bool
}

func newMeter(tr *tracer) *meter {
	return &meter{ref: make(map[int64][32]byte), first: make(map[int][32]byte), tr: tr}
}

// fail records a failed op or output check.
func (m *meter) fail(format string, args ...any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failLocked(fmt.Sprintf(format, args...))
}

func (m *meter) failLocked(msg string) {
	m.failed++
	if len(m.failures) < 8 {
		m.failures = append(m.failures, msg)
	}
}

// beforeOp runs before each op (before each pass of a parallel one):
// while probing it returns the heap to the OS, so the process's peak
// RSS is the largest single op's from a clean start.
func (m *meter) beforeOp() {
	if m.probing {
		debug.FreeOSMemory()
	}
}

func (m *meter) record(r opResult) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.attempted++
	if r.err != nil {
		m.failLocked(fmt.Sprintf("pass %d op %d: %v", r.pass, r.index, r.err))
		return
	}
	if !m.probing {
		m.lat = append(m.lat, r.ms)
		m.chRounds += r.chRounds
	}
	h := sha256.Sum256(r.report)
	if prev, ok := m.ref[r.key]; ok && prev != h {
		m.failLocked(fmt.Sprintf("pass %d op %d: report differs from an earlier run of the same config", r.pass, r.index))
		return
	}
	m.ref[r.key] = h
	if r.pass == 0 {
		m.first[r.index] = h
	}
}

// digest hashes pass 0's reports in op order.
func (m *meter) digest() string {
	idx := make([]int, 0, len(m.first))
	for i := range m.first {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	h := sha256.New()
	for _, i := range idx {
		v := m.first[i]
		h.Write(v[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// tailReady reports whether op_p90_ms has at least ten samples above it.
func (m *meter) tailReady() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	xs := append([]float64(nil), m.lat...)
	return above(xs, quantile(xs, 0.9)) >= 10
}

// result is one run's outcome.
type result struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Host      host               `json:"host"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Ops       int                `json:"ops"`
	Passes    int                `json:"passes"`
	PassSecs  []float64          `json:"pass_seconds"`
	Digest    string             `json:"digest"`
	Metrics   map[string]float64 `json:"metrics"`
	Spans     []span             `json:"spans,omitempty"`
}

// setupReps is how many times set-up is repeated; setup_s is the median.
const setupReps = 31

// measureSetup times one-round runs of every distinct config, plus the
// workload's own start-up, setupReps times, each from a collected heap,
// and returns the median.
func measureSetup(w workload) (float64, error) {
	var ds []float64
	for r := 0; r < setupReps; r++ {
		runtime.GC()
		t := time.Now()
		for _, cfg := range w.distinct() {
			cfg.Rounds = 1
			if _, err := earmac.Run(cfg); err != nil {
				return 0, fmt.Errorf("set-up run: %w", err)
			}
		}
		d := time.Since(t)
		start, err := w.open()
		w.close()
		if err != nil {
			return 0, err
		}
		ds = append(ds, (d + start).Seconds())
	}
	return quantile(ds, 0.5), nil
}

// run executes one benchmark run. An untraced run first makes one
// untimed memory pass (pass 0, whose reports give the digest and
// peak_rss_mb), then measures set-up, then runs whole timed passes
// until the time budget is spent and op_p90_ms has ten samples above
// it. A traced run skips the memory pass.
func run(opts options, spec *benchSpec) (*result, error) {
	w, err := newWorkload(opts)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if opts.traced {
		tr = newTracer()
	}
	m := newMeter(tr)
	first := 0
	var rss float64
	if !opts.traced {
		if _, err := w.open(); err != nil {
			return nil, err
		}
		m.probing = true
		w.pass(0, m)
		m.probing = false
		rss = peakRSSMB()
		w.close()
		first = 1
	}
	setup, err := measureSetup(w)
	if err != nil {
		return nil, err
	}
	if _, err := w.open(); err != nil {
		return nil, err
	}
	defer w.close()

	runtime.GC()
	ticks0, rt0 := readTicks(), readRuntime()
	start := time.Now()
	budget := time.Duration(opts.seconds * float64(time.Second))
	// Rates and CPU are medians over passes: the host's interference
	// comes in bursts of a second or two, which a median over ~20
	// passes of the same op mix rides out.
	passes := 0
	var passSecs, passRates, passCPU []float64
	for {
		t, c, r := time.Now(), cpuTime(), m.chRounds
		w.pass(first+passes, m)
		d := time.Since(t).Seconds()
		passSecs = append(passSecs, d)
		passRates = append(passRates, float64(m.chRounds-r)/d)
		passCPU = append(passCPU, (cpuTime() - c).Seconds())
		passes++
		el := time.Since(start)
		if el >= budget && m.tailReady() || el >= 3*budget {
			break
		}
	}
	ticks1, rt1 := readTicks(), readRuntime()

	res := &result{
		Workload:  opts.workload,
		Traced:    opts.traced,
		Host:      newHost(opts.seed),
		Attempted: m.attempted,
		Failed:    m.failed,
		Failures:  m.failures,
		Ops:       len(m.lat),
		Passes:    passes,
		PassSecs:  passSecs,
		Digest:    m.digest(),
	}
	res.Host.StealShare = stealShare(ticks0, ticks1)
	if want, ok := digests[opts.workload]; ok && opts.seed == defaultSeed && opts.adjust == nil && res.Digest != want {
		m.fail("digest %s at the default seed, want %s", res.Digest, want)
		res.Failed, res.Failures = m.failed, m.failures
	}
	if !opts.traced {
		lat := append([]float64(nil), m.lat...)
		rounds := float64(m.chRounds)
		res.Metrics = map[string]float64{
			"setup_s":               setup,
			"channel_rounds_per_s":  quantile(passRates, 0.5),
			"op_p50_ms":             quantile(lat, 0.5),
			"op_p90_ms":             quantile(lat, 0.9),
			"cpu_s":                 quantile(passCPU, 0.5),
			"peak_rss_mb":           rss,
			"alloc_bytes_per_round": float64(rt1.totalAlloc-rt0.totalAlloc) / rounds,
		}
	} else {
		res.Metrics = tr.metrics(passes)
		res.Metrics["host.steal_share"] = res.Host.StealShare
		res.Spans = tr.spans
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if err := checkMetrics(spec, opts.traced, res.Metrics); err != nil {
		return nil, err
	}
	return res, nil
}

// checkMetrics verifies the run computed exactly the metrics
// BENCHMARK.json declares for its kind.
func checkMetrics(spec *benchSpec, traced bool, got map[string]float64) error {
	want := spec.metrics(traced)
	if len(want) != len(got) {
		return fmt.Errorf("computed %d metrics, BENCHMARK.json declares %d", len(got), len(want))
	}
	for _, ms := range want {
		if _, ok := got[ms.Name]; !ok {
			return fmt.Errorf("metric %s declared in BENCHMARK.json was not computed", ms.Name)
		}
	}
	return nil
}
