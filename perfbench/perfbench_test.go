package main

import (
	"bytes"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"earmac"
	"earmac/internal/adversary"
	"earmac/internal/core"
	"earmac/internal/network"
	"earmac/internal/registry"
)

// TestWrappersForwardCapabilities wraps every registered algorithm's
// stations, the adversary, the network entry source and the trace sink,
// and checks each wrapper exposes exactly the wrapped value's optional
// interfaces, so a traced simulator cannot silently pin the quiescence
// engine or the loop selection.
func TestWrappersForwardCapabilities(t *testing.T) {
	for _, name := range registry.Algorithms() {
		e, _ := registry.Lookup(name)
		n := max(e.MinN, 6)
		k := max(e.MinK, 3)
		sys, err := registry.Build(name, n, k)
		if err != nil {
			t.Logf("%s: skipped: %v", name, err)
			continue
		}
		if _, err := wrapSystem(sys, &simClock{}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	pat, err := adversary.BuildPattern("uniform", adversary.PatternParams{N: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	adv := adversary.New(typeOf(1, 2, 1), pat)
	if _, err := wrapAdversary(adv, &simClock{}); err != nil {
		t.Error(err)
	}
	topo, err := network.Compile(network.Spec{Kind: "line", Channels: 2, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	src, err := network.NewAdversary(topo, typeOf(1, 2, 2), []adversary.Pattern{pat, pat})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wrapSource(src, []*simClock{{}, {}}); err != nil {
		t.Error(err)
	}
	if err := sameCaps(&bytes.Buffer{}, &sink{buf: &bytes.Buffer{}}); err != nil {
		t.Error(err)
	}
	// A wrapper that hid a capability must be caught.
	if err := sameCaps(adv, struct{ core.Adversary }{adv}); err == nil {
		t.Error("sameCaps accepted a wrapper hiding InjectAppender and EventSkipper")
	}
}

// TestTracedMatchesUntraced runs every workload briefly both ways: the
// traced run must pass its own reproduction checks (equal counters,
// loop selection and reports between bare and wrapped rebuilds and the
// façade) and give the untraced run's report digest.
func TestTracedMatchesUntraced(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		var digests [2]string
		for i, traced := range []bool{false, true} {
			res, err := run(options{workload: w.Name, seed: 7, seconds: 0.01, traced: traced}, spec)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct {
				t.Fatalf("%s traced=%v: %d of %d ops failed: %v", w.Name, traced, res.Failed, res.Attempted, res.Failures)
			}
			digests[i] = res.Digest
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: traced digest %s, untraced %s", w.Name, digests[1], digests[0])
		}
	}
}

// The test-only delay pattern: uniform injection plus spinIters
// iterations of busy work on every draw. It goes through the public
// RegisterPattern, so the slowed workload still runs the façade's
// default Run, and adds its work at the adversary interface (the
// pattern runs inside the adversary's InjectAppend).
var (
	spinIters atomic.Int64
	draws     atomic.Int64
	spinSink  atomic.Uint64
)

func spin(n int64) {
	x := uint64(n)
	for i := int64(0); i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	spinSink.Store(x)
}

const slowPattern = "perfbench-test-slow-uniform"

func init() {
	earmac.RegisterPattern(slowPattern, earmac.PatternMeta{Summary: "uniform plus a busy delay per draw", Randomized: true},
		func(p earmac.PatternParams) (adversary.Pattern, error) {
			inner, err := adversary.BuildPattern("uniform", p)
			if err != nil {
				return nil, err
			}
			return adversary.AppendFunc(func(round int64, budget int, buf []core.Injection) []core.Injection {
				draws.Add(1)
				spin(spinIters.Load())
				return adversary.DrawAppend(inner, round, budget, buf)
			}), nil
		})
}

func slowed(c earmac.Config) earmac.Config {
	if c.Pattern == "uniform" {
		c.Pattern = slowPattern
	}
	return c
}

// TestSeededSlowdown proves the benchmark catches a regression: half
// again as much per-round work at the adversary interface on table-checked
// must flag channel_rounds_per_s by the acceptance rule (median worse than
// the baseline median by more than the metric's bound), and a clean
// rerun must flag nothing time-based.
func TestSeededSlowdown(t *testing.T) {
	if testing.Short() {
		t.Skip("takes about a minute")
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	const (
		workload  = "table-checked"
		seconds   = 2
		reps      = 5
		addedWork = 0.5
	)
	measure := func(seed int64, adjust func(earmac.Config) earmac.Config) *result {
		t.Helper()
		res, err := run(options{workload: workload, seed: seed, seconds: seconds, adjust: adjust}, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("ops failed: %v", res.Failures)
		}
		return res
	}

	// Calibrate: busy work adding addedWork of a clean pass's median
	// time, spread over the pass's draws. The expected drop, 1 - 1/1.5
	// = 33%, clears the 25% bound by more than the in-process noise of
	// a shared 2-core VM; a quarter more work (a 20% drop) would sit
	// below it.
	clean := measure(100, nil)
	spinIters.Store(0)
	draws.Store(0)
	counted := measure(100, slowed)
	perPass := float64(draws.Load()) / float64(counted.Passes+1) // the memory pass draws too
	passNs := quantile(clean.PassSecs, 0.5) * 1e9
	const calib = 50_000_000
	t0 := time.Now()
	spin(calib)
	iterNs := float64(time.Since(t0)) / calib
	spinIters.Store(int64(addedWork * passNs / perPass / iterNs))
	t.Logf("%d spin iterations (%.0f ns) per draw, %.0f draws per pass of %.0f ms",
		spinIters.Load(), float64(spinIters.Load())*iterNs, perPass, passNs/1e6)

	var base, slow, rerun []*result
	for i := int64(0); i < reps; i++ {
		base = append(base, measure(200+i, nil))
		slow = append(slow, measure(300+i, slowed))
		rerun = append(rerun, measure(400+i, nil))
	}
	timeMetrics := []string{"channel_rounds_per_s", "op_p50_ms", "op_p90_ms", "cpu_s"}
	for _, name := range timeMetrics {
		ms, _ := spec.bound(name)
		b, s, r := median(base, name), median(slow, name), median(rerun, name)
		t.Logf("%-22s baseline %12.6g slowed %12.6g (%+.1f%%) clean rerun %12.6g (%+.1f%%) bound %.0f%%",
			name, b, s, 100*(s/b-1), r, 100*(r/b-1), 100*ms.Bound)
		if regressed(ms, b, r) {
			t.Errorf("%s: clean rerun flagged as a regression", name)
		}
	}
	ms, _ := spec.bound("channel_rounds_per_s")
	if !regressed(ms, median(base, ms.Name), median(slow, ms.Name)) {
		t.Errorf("channel_rounds_per_s: the seeded slowdown was not flagged")
	}
}

// regressed applies the acceptance rule: the candidate median is worse
// than the baseline median by more than the bound.
func regressed(ms metricSpec, base, cand float64) bool {
	if ms.Better == "higher" {
		return cand < base*(1-ms.Bound)
	}
	return cand > base*(1+ms.Bound)
}

func median(rs []*result, name string) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = r.Metrics[name]
	}
	sort.Float64s(xs)
	return quantile(xs, 0.5)
}

// bound returns the declaration of an end-to-end metric.
func (s *benchSpec) bound(name string) (metricSpec, bool) {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}
