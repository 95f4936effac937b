package main

// The traced run. It runs the same ops with the same checks as the
// untraced run, and after each op rebuilds the op's simulator from the
// benchmark's own files twice — bare, and with the timing wrappers of
// wrap.go — to attribute time to layers by timing calls into each
// layer's public functions. The rebuilt simulators must reproduce the
// façade's results: equal metrics.Counters between bare and wrapped
// (and against the façade's recorded trace footer on networks), equal
// loop selection (FastPath, SkipCapable), and byte-identical reports.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"earmac"
	"earmac/internal/adversary"
	"earmac/internal/core"
	"earmac/internal/mac/duty"
	"earmac/internal/metrics"
	"earmac/internal/network"
	"earmac/internal/ratio"
	"earmac/internal/registry"
	"earmac/internal/report"
)

// span is one timed call at a layer boundary. Spans of one op share Op;
// Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// stat sums durations of one kind of call.
type stat struct {
	n  int64
	ns int64
}

func (s *stat) add(d time.Duration) { s.n++; s.ns += int64(d) }

func (s *stat) mean() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.ns) / float64(s.n)
}

type tracer struct {
	mu    sync.Mutex // guards spans
	t0    time.Time
	spans []span

	// Go runtime, over the façade ops only.
	gcCycles      uint64
	gcCPU, allCPU float64

	prepare stat
	ops     int64 // traced rebuilds

	// Single-channel rebuilds.
	coreRounds    int64
	coreSelfNs    float64
	checkedRounds int64
	livePeak      int
	conserve      stat
	snapshot      stat

	// All rebuilds (single-channel sims and network channels).
	clk        simClock
	simRounds  int64 // channel-rounds
	bareNs     int64
	wrappedNs  int64
	suiteBusy  float64
	suiteCap   float64
	suiteTail  stat
	compile    stat
	netRounds  int64
	netRunNs   int64
	serialNs   int64
	parallelNs int64
	overheadNs float64
	relayed    int64
	inFlight   int

	// Trace record, read and replay through the façade.
	recBytes, recRounds int64
	writeNs, readNs     int64
	recordNs, replayNs  int64

	// Service.
	hit, miss, self                []float64
	decode, fingerprint, encodeDur stat
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.t0)) }

// span records a finished span and returns its ID.
func (t *tracer) span(name string, op int64, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: t.ns(start), End: t.ns(end)})
	return id
}

// end closes the root span id at the current time.
func (t *tracer) end(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.ns(time.Now())
}

// facade runs one façade call, returning its duration in ms. On a
// traced run it also records the call's span and the runtime's GC work
// during it.
func (t *tracer) facade(name string, op int64, f func() time.Duration) float64 {
	if t == nil {
		return float64(f()) / 1e6
	}
	r0 := readRuntime()
	start := time.Now()
	d := f()
	r1 := readRuntime()
	t.span(name, op, 0, start, start.Add(d))
	t.gcCycles += r1.gcCycles - r0.gcCycles
	t.gcCPU += r1.gcCPU - r0.gcCPU
	t.allCPU += r1.allCPU - r0.allCPU
	return float64(d) / 1e6
}

// timed runs f and records its span under parent.
func (t *tracer) timed(name string, op int64, parent int, f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	end := time.Now()
	t.span(name, op, parent, start, end)
	return end.Sub(start), err
}

// checkEvery mirrors the façade's conservation cadence.
func checkEvery(cfg earmac.Config) int64 {
	if cfg.DisableChecks {
		return 0
	}
	return 10007
}

// chunk mirrors the façade's step size (its cancellation cadence), so
// rebuilt sims settle at the same round boundaries.
const chunk = 16384

// single is a rebuilt single-channel simulator.
type single struct {
	sim  *core.Sim
	info core.AlgorithmInfo
	grp  *duty.Group
	trk  *metrics.Tracker
	n    int
}

func (s *single) report() earmac.Report {
	rep := report.FromTracker(s.info, s.n, s.trk)
	if s.grp != nil {
		rep.SleepRounds = s.grp.SleepRounds()
	}
	return rep
}

func typeOf(num, den, beta int64) adversary.Type {
	return adversary.Type{Rho: ratio.New(num, den), Beta: ratio.FromInt(beta)}
}

func dutyOf(cfg earmac.Config) duty.Params {
	return duty.Params{SleepAfterIdle: cfg.SleepAfterIdle, WakeEvery: cfg.WakeEvery, EnergyBudget: cfg.EnergyBudget}
}

// mirrorable rejects the config features the rebuilds do not mirror.
func mirrorable(cfg earmac.Config) error {
	if len(cfg.Phases) > 0 || cfg.StopInjectionsAfter > 0 || len(cfg.Outages) > 0 || cfg.Replay != nil ||
		len(cfg.Links) > 0 || cfg.Trace != nil || cfg.ForceChecked {
		return fmt.Errorf("config uses a feature the traced rebuild does not mirror")
	}
	return nil
}

// buildSingle assembles the simulator earmac.Run would for a
// single-channel config; with a non-nil clock its stations and
// adversary are timed.
func buildSingle(cfg earmac.Config, clk *simClock) (*single, error) {
	if err := mirrorable(cfg); err != nil {
		return nil, err
	}
	sys, err := registry.Build(cfg.Algorithm, cfg.N, cfg.K)
	if err != nil {
		return nil, err
	}
	sys, grp := duty.Wrap(sys, dutyOf(cfg))
	pat, err := adversary.BuildPattern(cfg.Pattern, adversary.PatternParams{
		N: cfg.N, Seed: cfg.Seed, Src: cfg.Src, Dest: cfg.Dest, RhoNum: cfg.RhoNum, RhoDen: cfg.RhoDen,
	})
	if err != nil {
		return nil, err
	}
	var adv core.Adversary = adversary.New(typeOf(cfg.RhoNum, cfg.RhoDen, cfg.Beta), pat)
	tr := metrics.NewTracker()
	tr.TrackStations(cfg.N)
	if se := cfg.Rounds / 512; se > tr.SampleEvery {
		tr.SampleEvery = se
	}
	opts := core.Options{Strict: !cfg.Lenient, CheckEvery: checkEvery(cfg), Tracker: tr, NoSkip: cfg.NoSkip}
	if cfg.JamRhoNum > 0 {
		// A live jammer has no horizon, so (as in the façade) it gets no
		// DisruptHorizon and pins span skipping.
		jam := network.NewJammer(typeOf(cfg.JamRhoNum, cfg.JamRhoDen, cfg.JamBeta), 1, cfg.Seed)
		buf := make([]int, 0, 1)
		opts.Disrupted = func(round int64) core.Disrupt {
			if buf = jam.AppendJams(round, buf[:0]); len(buf) > 0 {
				return core.DisruptJam
			}
			return 0
		}
	}
	info := sys.Info
	if clk != nil {
		if sys, err = wrapSystem(sys, clk); err != nil {
			return nil, err
		}
		if adv, err = wrapAdversary(adv, clk); err != nil {
			return nil, err
		}
	}
	return &single{sim: core.NewSim(sys, adv, opts), info: info, grp: grp, trk: tr, n: cfg.N}, nil
}

// runChunks steps a simulator rounds rounds in façade-sized chunks,
// calling between after each.
func runChunks(step func(int64) error, rounds, size int64, between func()) error {
	for done := int64(0); done < rounds; {
		c := min(size, rounds-done)
		if err := step(c); err != nil {
			return err
		}
		done += c
		if between != nil {
			between()
		}
	}
	return nil
}

// single traces one single-channel op whose façade report was want.
func (t *tracer) single(op int64, cfg earmac.Config, want []byte) error {
	start := time.Now()
	root := t.span("trace.single", op, 0, start, start)
	p := cfg
	p.Rounds = 1
	d, err := t.timed("earmac.prepare", op, root, func() error { _, err := earmac.Run(p); return err })
	if err != nil {
		return err
	}
	t.prepare.add(d)

	bare, err := buildSingle(cfg, nil)
	if err != nil {
		return err
	}
	bareDur, err := t.timed("core.Sim.Run", op, root, func() error { return runChunks(bare.sim.Run, cfg.Rounds, chunk, nil) })
	if err != nil {
		return err
	}
	clk := &simClock{}
	wr, err := buildSingle(cfg, clk)
	if err != nil {
		return err
	}
	live := 0
	wrDur, err := t.timed("core.Sim.Run+wrappers", op, root, func() error {
		return runChunks(wr.sim.Run, cfg.Rounds, chunk, func() { live = max(live, wr.sim.LivePackets()) })
	})
	if err != nil {
		return err
	}
	if bare.trk.Counters != wr.trk.Counters {
		return fmt.Errorf("wrapped counters %+v differ from bare %+v", wr.trk.Counters, bare.trk.Counters)
	}
	if bare.sim.FastPath() != wr.sim.FastPath() || bare.sim.SkipCapable() != wr.sim.SkipCapable() {
		return fmt.Errorf("wrapped sim selects fast=%v skip=%v, bare fast=%v skip=%v",
			wr.sim.FastPath(), wr.sim.SkipCapable(), bare.sim.FastPath(), bare.sim.SkipCapable())
	}
	var rep earmac.Report
	d, _ = t.timed("report.FromTracker", op, root, func() error { rep = bare.report(); return nil })
	t.snapshot.add(d)
	if got := canonical(rep); !bytes.Equal(got, want) {
		return fmt.Errorf("rebuilt report differs from the façade's:\n got %s\nwant %s", got, want)
	}
	if got := canonical(wr.report()); !bytes.Equal(got, want) {
		return fmt.Errorf("wrapped report differs from the façade's")
	}
	if checkEvery(cfg) > 0 {
		d, err = t.timed("core.CheckConservation", op, root, wr.sim.CheckConservation)
		if err != nil {
			return err
		}
		t.conserve.add(d)
	}

	t.ops++
	t.coreRounds += cfg.Rounds
	t.simRounds += cfg.Rounds
	// Each timed call added two clock reads to the run's wall time, and
	// the station and adversary estimates exclude both: neither belongs
	// to the core.
	self := float64(wrDur) - clk.stationNs() - clk.adv.total() - 2*float64(clk.timedCalls())*float64(clockCost)
	t.coreSelfNs += self
	if !bare.sim.FastPath() {
		t.checkedRounds += cfg.Rounds
	}
	t.livePeak = max(t.livePeak, live)
	t.bareNs += int64(bareDur)
	t.wrappedNs += int64(wrDur)
	t.clk.merge(clk)
	t.end(root)
	return nil
}

// suite records one Suite pass's scheduling figures.
func (t *tracer) suite(start time.Time, done []completion, starts []time.Time, workers int) {
	if len(done) == 0 {
		return
	}
	root := t.span("earmac.Suite.Run", -1, 0, start, done[len(done)-1].at)
	var busy time.Duration
	for _, d := range done {
		busy += d.at.Sub(starts[d.res.Index])
		t.span("suite.cell", int64(d.res.Index), root, starts[d.res.Index], d.at)
	}
	wall := done[len(done)-1].at.Sub(start)
	t.suiteBusy += float64(busy)
	t.suiteCap += float64(workers) * float64(wall)
	if len(done) >= workers {
		// After completion len-W the worker that reported it found no
		// cell left: the first idle worker.
		t.suiteTail.add(done[len(done)-1].at.Sub(done[len(done)-workers].at))
	}
}

// scenario records one record/read/replay op.
func (t *tracer) scenario(rounds int64, sk *sink, r recording) {
	t.recBytes += sk.bytes
	t.recRounds += rounds
	t.writeNs += sk.ns
	t.readNs += int64(r.read)
	t.recordNs += int64(r.record)
	t.replayNs += int64(r.replay)
}

// channelSeedStride mirrors the façade's per-channel pattern seed
// spacing (earmac.channelSeedStride); the counter check against the
// recorded footer catches any drift.
const channelSeedStride = 1_000_003

// buildNet assembles the network earmac.Run would for a topology
// config; with non-nil clocks (one per channel) its stations and entry
// source are timed.
func buildNet(cfg earmac.Config, topo *network.Topology, workers int, clocks []*simClock) (*network.Network, error) {
	if err := mirrorable(cfg); err != nil {
		return nil, err
	}
	if cfg.JamRhoNum > 0 || dutyOf(cfg).Enabled() {
		return nil, fmt.Errorf("network rebuild does not mirror disruption")
	}
	build := func(ch int) (*core.System, error) {
		sys, err := registry.Build(cfg.Algorithm, cfg.N, cfg.K)
		if err != nil || clocks == nil {
			return sys, err
		}
		return wrapSystem(sys, clocks[ch])
	}
	pats := make([]adversary.Pattern, cfg.Channels)
	for c := range pats {
		pat, err := adversary.BuildPattern(cfg.Pattern, adversary.PatternParams{
			N: topo.Stations(), Seed: cfg.Seed + int64(c)*channelSeedStride,
			Src: cfg.Src, Dest: cfg.Dest, RhoNum: cfg.RhoNum, RhoDen: cfg.RhoDen,
		})
		if err != nil {
			return nil, err
		}
		pats[c] = pat
	}
	var entry network.Source
	entry, err := network.NewAdversary(topo, typeOf(cfg.RhoNum, cfg.RhoDen, cfg.Beta), pats)
	if err != nil {
		return nil, err
	}
	if clocks != nil {
		if entry, err = wrapSource(entry, clocks); err != nil {
			return nil, err
		}
	}
	return network.New(topo, build, entry, network.Options{
		Strict:        !cfg.Lenient,
		CheckEvery:    checkEvery(cfg),
		SampleEvery:   cfg.Rounds / 512,
		Workers:       workers,
		NoSkip:        cfg.NoSkip,
		TrackStations: true,
	})
}

// inFlightEvery is the round interval at which the wrapped network's
// in-flight packet count is sampled.
const inFlightEvery = 64

// network traces one network op whose façade recording is rec.
func (t *tracer) network(op int64, cfg earmac.Config, rec *earmac.Trace) error {
	if rec.Footer == nil || rec.Footer.Counters == nil {
		return fmt.Errorf("recorded trace has no footer counters")
	}
	start := time.Now()
	root := t.span("trace.network", op, 0, start, start)
	p := cfg
	p.Rounds = 1
	d, err := t.timed("earmac.prepare", op, root, func() error { _, err := earmac.Run(p); return err })
	if err != nil {
		return err
	}
	t.prepare.add(d)
	var topo *network.Topology
	d, err = t.timed("network.Compile", op, root, func() (err error) {
		topo, err = network.Compile(network.Spec{Kind: cfg.Topology, Channels: cfg.Channels, N: cfg.N, Seed: cfg.Seed})
		return err
	})
	if err != nil {
		return err
	}
	t.compile.add(d)

	// runNet builds and runs one network, returning its run time and
	// final counters.
	runNet := func(name string, workers int, clocks []*simClock, between func(*network.Network)) (time.Duration, *network.Network, error) {
		size := int64(chunk)
		if between != nil {
			size = inFlightEvery
		}
		net, err := buildNet(cfg, topo, workers, clocks)
		if err != nil {
			return 0, nil, err
		}
		defer net.Close()
		d, err := t.timed(name, op, root, func() error {
			return runChunks(net.Run, cfg.Rounds, size, func() {
				if between != nil {
					between(net)
				}
			})
		})
		return d, net, err
	}
	parDur, par, err := runNet("network.Run", nproc, nil, nil)
	if err != nil {
		return err
	}
	serDur, ser, err := runNet("network.Run(workers=1)", 1, nil, nil)
	if err != nil {
		return err
	}
	clocks := make([]*simClock, cfg.Channels)
	for i := range clocks {
		clocks[i] = &simClock{}
	}
	peak := 0
	wrDur, wr, err := runNet("network.Run+wrappers", nproc, clocks, func(n *network.Network) { peak = max(peak, n.InFlight()) })
	if err != nil {
		return err
	}
	want := *rec.Footer.Counters
	for _, n := range []*network.Network{par, ser, wr} {
		if got := n.Tracker().Counters; got != want {
			return fmt.Errorf("rebuilt network counters %+v differ from the recorded %+v", got, want)
		}
	}
	var work float64
	for c, clk := range clocks {
		work += clk.workNs()
		t.clk.merge(clk)
		t.relayed += par.Relayed(c)
	}
	t.ops++
	t.simRounds += cfg.Rounds * int64(cfg.Channels)
	t.netRounds += cfg.Rounds
	t.netRunNs += int64(parDur)
	t.serialNs += int64(serDur)
	t.parallelNs += int64(parDur)
	t.overheadNs += float64(wrDur) - work/float64(wr.Workers())
	t.inFlight = max(t.inFlight, peak)
	t.bareNs += int64(parDur)
	t.wrappedNs += int64(wrDur)
	t.end(root)
	return nil
}

// service traces one /v1/run request: the handler's decode,
// fingerprint and encode steps timed on the same bytes, and for the
// request that made the service simulate, a direct Run of the config.
func (t *tracer) service(op int64, cfg earmac.Config, body []byte, r reply, simulated bool) error {
	t.span("POST /v1/run", op, 0, r.start, r.start.Add(time.Duration(r.ms*1e6)))
	if r.hit {
		t.hit = append(t.hit, r.ms)
	} else {
		t.miss = append(t.miss, r.ms)
	}
	var dec earmac.Config
	d, err := t.timed("service.decode", op, 0, func() error {
		jd := json.NewDecoder(bytes.NewReader(body))
		jd.DisallowUnknownFields()
		if err := jd.Decode(&dec); err != nil {
			return err
		}
		return dec.Validate()
	})
	if err != nil {
		return err
	}
	t.decode.add(d)
	d, _ = t.timed("service.fingerprint", op, 0, func() error { _ = dec.Fingerprint(); return nil })
	t.fingerprint.add(d)
	var rep earmac.Report
	if err := json.Unmarshal(r.body, &rep); err != nil {
		return fmt.Errorf("decoding reply: %w", err)
	}
	var enc []byte
	d, _ = t.timed("service.encode", op, 0, func() error { enc = report.CanonicalJSON(rep); return nil })
	t.encodeDur.add(d)
	if !bytes.Equal(enc, r.body) {
		return fmt.Errorf("reply is not the canonical encoding of its report")
	}
	if !simulated {
		return nil
	}
	var direct earmac.Report
	d, err = t.timed("earmac.Run(direct)", op, 0, func() (err error) { direct, err = earmac.Run(cfg); return err })
	if err != nil {
		return err
	}
	if !bytes.Equal(canonical(direct), r.body) {
		return fmt.Errorf("served report differs from a direct Run")
	}
	t.self = append(t.self, r.ms-float64(d)/1e6)
	return t.single(op, cfg, r.body)
}

func ratioOf(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics turns the accumulated figures into the per-layer metrics.
func (t *tracer) metrics(passes int) map[string]float64 {
	sr := float64(t.simRounds)
	hits, misses := float64(len(t.hit)), float64(len(t.miss))
	return map[string]float64{
		"earmac.prepare_ms":               t.prepare.mean() / 1e6,
		"core.round_ns":                   ratioOf(t.coreSelfNs, float64(t.coreRounds)),
		"core.checked_share":              ratioOf(float64(t.checkedRounds), float64(t.coreRounds)),
		"core.live_packets_peak":          float64(t.livePeak),
		"core.conservation_ms":            t.conserve.mean() / 1e6,
		"alg.act_ns":                      ratioOf(t.clk.act.total(), float64(t.clk.act.n)),
		"alg.observe_ns":                  ratioOf(t.clk.observe.total(), float64(t.clk.observe.n)),
		"alg.act_calls_per_round":         ratioOf(float64(t.clk.act.n), sr),
		"adversary.inject_ns_per_round":   ratioOf(t.clk.adv.total(), sr),
		"adversary.injections_per_round":  ratioOf(float64(t.clk.injections), sr),
		"skip.stepped_share":              ratioOf(float64(t.clk.steppedRounds), sr),
		"skip.skipidle_calls":             ratioOf(float64(t.clk.skip.n), float64(t.ops)),
		"report.snapshot_us":              t.snapshot.mean() / 1e3,
		"suite.worker_busy_share":         ratioOf(t.suiteBusy, t.suiteCap),
		"suite.tail_ms":                   t.suiteTail.mean() / 1e6,
		"network.compile_ms":              t.compile.mean() / 1e6,
		"network.round_ns":                ratioOf(float64(t.netRunNs), float64(t.netRounds)),
		"network.worker_speedup":          ratioOf(float64(t.serialNs), float64(t.parallelNs)),
		"network.overhead_ns_per_round":   ratioOf(t.overheadNs, float64(t.netRounds)),
		"network.relayed_per_round":       ratioOf(float64(t.relayed), float64(t.netRounds)),
		"network.in_flight_peak":          float64(t.inFlight),
		"scenario.record_bytes_per_round": ratioOf(float64(t.recBytes), float64(t.recRounds)),
		"scenario.write_ns_per_round":     ratioOf(float64(t.writeNs), float64(t.recRounds)),
		"scenario.read_mb_per_s":          ratioOf(float64(t.recBytes)*1e3, float64(t.readNs)),
		"scenario.replay_ratio":           ratioOf(float64(t.replayNs), float64(t.recordNs)),
		"service.hit_p50_ms":              quantile(t.hit, 0.5),
		"service.miss_p50_ms":             quantile(t.miss, 0.5),
		"service.hit_ratio":               ratioOf(hits, hits+misses),
		"service.decode_us":               t.decode.mean() / 1e3,
		"service.fingerprint_us":          t.fingerprint.mean() / 1e3,
		"service.encode_us":               t.encodeDur.mean() / 1e3,
		"service.self_ms":                 quantile(t.self, 0.5),
		"runtime.gc_cycles":               ratioOf(float64(t.gcCycles), float64(passes)),
		"runtime.gc_cpu_share":            ratioOf(t.gcCPU, t.allCPU),
		"trace.overhead_ratio":            ratioOf(float64(t.wrappedNs), float64(t.bareNs)),
	}
}
