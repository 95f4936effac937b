// Package earmac is an executable reproduction of "Energy Efficient
// Adversarial Routing in Shared Channels" (Chlebus, Hradovich,
// Jurdziński, Klonowski, Kowalski — SPAA 2019): deterministic distributed
// routing algorithms on a multiple access channel under an energy cap,
// driven by leaky-bucket adversarial packet injection.
//
// The package is a façade over the internal simulator. A Config selects
// an algorithm, a system size, an adversary type (ρ, β) and injection
// pattern, and a horizon; Run executes the simulation in the exact model
// of the paper — validating the energy cap, plain-packet discipline,
// schedule obliviousness, and exactly-once packet ownership — and returns
// a Report of stability, latency, and energy measurements.
//
//	rep, err := earmac.Run(earmac.Config{
//		Algorithm: "orchestra",
//		N:         8,
//		RhoNum:    1, RhoDen: 1, // injection rate 1
//		Beta:      2,
//		Rounds:    200000,
//	})
//
// RunContext adds cancellation and periodic progress snapshots; Suite
// runs a whole grid of configurations (Grid crosses algorithms × sizes ×
// rates × patterns) across a bounded worker pool with deterministic
// result ordering.
//
// Algorithms and injection patterns live in registries populated by
// self-registration (see RegisterAlgorithm and RegisterPattern); each
// entry carries metadata — energy cap, the paper's plain-packet / direct
// / oblivious taxonomy flags, valid parameter ranges — so capabilities
// can be enumerated and filtered without instantiating a system.
//
// Scenarios are data: seeded stochastic patterns ("bernoulli",
// "poisson-batch", clipped online by the leaky bucket so every sampled
// run respects its (ρ, β) contract), time-varying phase schedules
// (Config.Phases), and a versioned replayable trace format
// (Config.RecordTo, Config.Replay, ReadTrace, ReplayConfig) that
// re-executes any run bit-for-bit.
//
// Setting Config.Topology generalizes the single shared channel to a
// *network* of them — the paper's framing of routing networks as
// multiple access channels. Each channel runs its own N-station replica
// set, a global (ρ, β) budget is split evenly across per-channel entry
// buckets, and packets are relayed hop by hop through gateway stations
// along shortest channel-graph paths; reports then carry end-to-end
// figures plus a per-channel breakdown, and recordings use trace format
// v2 (a channel id per event). See DESIGN.md for the algorithm →
// paper-theorem mapping, the model invariants the simulator checks, the
// scenario/trace determinism rules (§8), and the network model (§11).
package earmac

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"earmac/internal/adversary"
	"earmac/internal/core"
	"earmac/internal/mac/duty"
	"earmac/internal/metrics"
	"earmac/internal/network"
	"earmac/internal/ratio"
	"earmac/internal/registry"
	"earmac/internal/report"
	"earmac/internal/scenario"
	"earmac/internal/trace"
)

// Config selects a simulation. Zero fields take the documented defaults.
// The JSON tags define the schema used by SuiteReport serialization.
type Config struct {
	// Algorithm is one of Algorithms(). Default "orchestra".
	Algorithm string `json:"algorithm,omitempty"`
	// N is the number of stations. Default 8.
	N int `json:"n,omitempty"`
	// K is the energy-cap parameter of k-cycle, k-clique, k-subsets and
	// k-subsets-rrw (ignored by the fixed-cap algorithms). Default 3.
	K int `json:"k,omitempty"`
	// RhoNum/RhoDen give the injection rate ρ as an exact fraction.
	// Default 1/2.
	RhoNum int64 `json:"rho_num,omitempty"`
	RhoDen int64 `json:"rho_den,omitempty"`
	// Beta is the burstiness coefficient β ≥ 1. Default 1.
	Beta int64 `json:"beta,omitempty"`
	// Topology, when non-empty, runs a *network* of shared channels
	// instead of the classic single channel: one of Topologies() —
	// "line", "star", "clique", "grid", "random" (seeded by Seed), or
	// "custom" (explicit Links). Every
	// channel is its own contention domain running an N-station replica
	// of the algorithm; packets whose destination lies in another
	// channel are relayed hop by hop through per-neighbour gateway
	// stations (see DESIGN.md §11).
	Topology string `json:"topology,omitempty"`
	// Channels is the channel count of a network topology. Default 2
	// when Topology is set; must stay 0 without one.
	Channels int `json:"channels,omitempty"`
	// Links is the explicit channel adjacency for Topology "custom":
	// undirected [from, to] channel-index pairs forming a connected
	// graph.
	Links [][2]int `json:"links,omitempty"`
	// Pattern is one of Patterns(). Default "uniform". On a network,
	// each channel draws from its own independently-seeded pattern
	// instance over the global station space: sources are folded into
	// the entry channel, destinations stay global.
	Pattern string `json:"pattern,omitempty"`
	// Phases, when non-empty, replaces Pattern with a time-varying phase
	// schedule composed from registered patterns (see Phase). Phase i
	// builds its pattern with seed Seed+i, so phases draw independent
	// randomness yet stay reproducible.
	Phases []Phase `json:"phases,omitempty"`
	// Src and Dest parameterize the targeted patterns (single-target,
	// hot-source).
	Src  int `json:"src,omitempty"`
	Dest int `json:"dest,omitempty"`
	// Seed makes randomized patterns deterministic. Default 1.
	Seed int64 `json:"seed,omitempty"`
	// Rounds is the horizon. Default 100000.
	Rounds int64 `json:"rounds,omitempty"`
	// StopInjectionsAfter ends injection at that round so the system can
	// drain (0 = inject throughout).
	StopInjectionsAfter int64 `json:"stop_injections_after,omitempty"`
	// Lenient records model violations in the report instead of failing.
	Lenient bool `json:"lenient,omitempty"`
	// DisableChecks turns off the packet-conservation invariant checker
	// (on by default; it costs O(queue) every ~10k rounds).
	DisableChecks bool `json:"disable_checks,omitempty"`
	// ForceChecked attaches the simulator's checker (which adds the
	// per-round schedule-conformance scan) even when Lenient and
	// DisableChecks would otherwise leave it off; without it the
	// allocation-free fast path records every violation except schedule
	// conformance. Set it to audit a custom algorithm's schedule without
	// aborting on violations.
	ForceChecked bool `json:"force_checked,omitempty"`
	// JamRhoNum/JamRhoDen/JamBeta, when JamRhoNum > 0, add a jamming
	// adversary with its own (ρ_j, β_j) leaky-bucket budget, spent one
	// unit per jammed channel-round: each round it greedily jams as many
	// channels as the budget affords (at most all of them), chosen by a
	// seeded shuffle. A jammed round delivers nothing and every
	// listening station hears a collision. JamRhoDen defaults to 1 and
	// JamBeta to 1 when a jam rate is set. Only algorithms whose
	// metadata declares Tolerant accept a jamming config (see
	// AlgorithmMeta.Tolerant); recorded traces store the jam stream as
	// v3 events, so replays reproduce it exactly.
	JamRhoNum int64 `json:"jam_rho_num,omitempty"`
	JamRhoDen int64 `json:"jam_rho_den,omitempty"`
	JamBeta   int64 `json:"jam_beta,omitempty"`
	// Outages schedules channel-dead windows: during [From, From+Rounds)
	// the named channel delivers nothing (stations hear collisions), and
	// on a network, relay hand-offs destined for it queue at the network
	// layer until the window ends. Windows on one channel must not
	// overlap; channel indices must fit the topology (0 only, for a
	// single-channel run). Requires a Tolerant algorithm.
	Outages []Outage `json:"outages,omitempty"`
	// SleepAfterIdle/WakeEvery/EnergyBudget duty-cycle the stations (see
	// internal/mac/duty): a station whose queue stayed empty for
	// SleepAfterIdle consecutive rounds switches off instead of
	// listening (waking every WakeEvery rounds if set), and one that has
	// spent EnergyBudget switched-on rounds stops listening for good.
	// Zero values disable each rule. Duty-cycling trades deliveries for
	// energy — a packet sent to a sleeping destination is dropped — so
	// it also requires a Tolerant algorithm.
	SleepAfterIdle int64 `json:"sleep_after_idle,omitempty"`
	WakeEvery      int64 `json:"wake_every,omitempty"`
	EnergyBudget   int64 `json:"energy_budget,omitempty"`
	// Trace, when non-nil, receives a per-round event log (who was on,
	// what was transmitted, deliveries) for rounds [TraceFrom, TraceUpTo).
	Trace     io.Writer `json:"-"`
	TraceFrom int64     `json:"-"`
	TraceUpTo int64     `json:"-"`
	// RecordTo, when non-nil, receives a replayable injection trace of
	// the run in the versioned JSONL format (header with this Config,
	// one event line per injecting round, footer pinning the final
	// counters). Recording works with or without the simulator's
	// checker and does not attach it.
	RecordTo io.Writer `json:"-"`
	// Replay, when non-nil, re-executes the recorded injection stream
	// instead of running an adversary: Pattern, Phases, Seed, ρ and β
	// are ignored for injection (they still describe the recorded run).
	// Use ReplayConfig to assemble a faithful Config from a trace.
	Replay *Trace `json:"-"`
	// NoSkip disables the quiescence fast-forward engine (DESIGN.md
	// §16), forcing the classic per-round loop even where the simulator
	// could prove idle rounds skippable. The engine is bit-identical by
	// construction — reports, traces, and recordings match at either
	// setting — so this is a pure throughput knob: runtime-only,
	// excluded from the JSON schema and from Fingerprint.
	NoSkip bool `json:"-"`
	// NetWorkers sets how many worker goroutines step a network's
	// channels each round: 0 means GOMAXPROCS, 1 forces the serial
	// loop, k > 1 uses min(k, Channels) persistent workers. Ignored
	// without a Topology. Reports, traces, and progress snapshots are
	// bit-identical at any value (see DESIGN.md §13), so this is a pure
	// throughput knob — runtime-only, excluded from the JSON schema and
	// from Fingerprint.
	NetWorkers int `json:"-"`
	// OnProgress, when non-nil, receives an interim snapshot every
	// ProgressEvery rounds during RunContext, at the final round, and —
	// when the context is cancelled mid-run — once at the round the run
	// stopped, before RunContext returns. RunContext never invokes
	// OnProgress after it has returned.
	OnProgress func(Progress) `json:"-"`
	// ProgressEvery is the snapshot period in rounds. Default Rounds/64
	// (at least 1).
	ProgressEvery int64 `json:"-"`
}

func (c Config) withDefaults() Config {
	if c.Algorithm == "" {
		c.Algorithm = "orchestra"
	}
	if c.N == 0 {
		c.N = 8
	}
	if c.K == 0 {
		c.K = 3
	}
	if c.RhoNum == 0 && c.RhoDen == 0 {
		c.RhoNum, c.RhoDen = 1, 2
	}
	if c.RhoDen == 0 {
		c.RhoDen = 1
	}
	if c.Beta == 0 {
		c.Beta = 1
	}
	if c.Pattern == "" {
		c.Pattern = "uniform"
	}
	if c.Topology != "" && c.Channels == 0 {
		c.Channels = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Rounds == 0 {
		c.Rounds = 100000
	}
	if c.JamRhoNum > 0 {
		if c.JamRhoDen == 0 {
			c.JamRhoDen = 1
		}
		if c.JamBeta == 0 {
			c.JamBeta = 1
		}
	}
	return c
}

// Outage is one scheduled channel-dead window (Config.Outages).
type Outage = network.Outage

// jamming reports whether the config enables the jamming adversary.
func (c Config) jamming() bool { return c.JamRhoNum > 0 }

// dutyParams collects the duty-cycling knobs.
func (c Config) dutyParams() duty.Params {
	return duty.Params{
		SleepAfterIdle: c.SleepAfterIdle,
		WakeEvery:      c.WakeEvery,
		EnergyBudget:   c.EnergyBudget,
	}
}

// disrupted reports whether the run can produce trace-v3 events
// (jam/outage/sleep) — recordings then declare format version 3.
func (c Config) disrupted() bool {
	return c.jamming() || len(c.Outages) > 0 || c.dutyParams().Enabled()
}

// Report holds the measurements of one simulation. It is the shared
// schema (internal/report) that Suite results and the -json CLI outputs
// also serialize.
type Report = report.Report

// Progress is an interim snapshot handed to Config.OnProgress during
// RunContext. Report is assembled from the tracker mid-run: cumulative
// counters are exact, derived figures (slope, stability) reflect the
// samples so far.
type Progress struct {
	// Round is the number of completed rounds.
	Round int64 `json:"round"`
	// Total is the configured horizon.
	Total int64 `json:"total"`
	// Report is the interim measurement snapshot.
	Report Report `json:"report"`
}

// buildPattern constructs one injection source over n stations with the
// given base seed: a single registered pattern, or a phase schedule
// composed from several (phase i draws with seed+i).
func buildPattern(cfg Config, n int, seed int64) (adversary.Pattern, error) {
	one := func(name string, seed int64) (adversary.Pattern, error) {
		return adversary.BuildPattern(name, adversary.PatternParams{
			N: n, Seed: seed, Src: cfg.Src, Dest: cfg.Dest,
			RhoNum: cfg.RhoNum, RhoDen: cfg.RhoDen,
		})
	}
	if len(cfg.Phases) == 0 {
		return one(cfg.Pattern, seed)
	}
	segs := make([]scenario.Segment, len(cfg.Phases))
	for i, ph := range cfg.Phases {
		p, err := one(ph.Pattern, seed+int64(i))
		if err != nil {
			return nil, err
		}
		segs[i] = scenario.Segment{Pattern: p, Rounds: ph.Rounds}
	}
	return scenario.NewPhased(segs)
}

// channelSeedStride separates the per-channel base seeds of a network
// run far enough that channel c's phase seeds (base + phase index)
// never collide with channel c+1's.
const channelSeedStride = 1_000_003

// run bundles everything one simulation needs, behind closures so the
// single-channel and network paths share one driver loop (RunContext).
type run struct {
	step     func(rounds int64) error
	snapshot func() Report
	counters func() *metrics.Counters // final-counter source for the trace footer
	enc      *scenario.Encoder        // non-nil when recording a trace
	close    func()                   // non-nil when the simulator owns resources (network workers)
}

// prepare validates the defaulted config and assembles the simulator —
// a single core.Sim, or a network of them when a Topology is set.
func prepare(cfg Config) (run, error) {
	if err := cfg.validate(); err != nil {
		return run{}, err
	}
	if cfg.Topology != "" {
		return prepareNetwork(cfg)
	}
	sys, err := registry.Build(cfg.Algorithm, cfg.N, cfg.K)
	if err != nil {
		return run{}, err
	}
	sys, grp := duty.Wrap(sys, cfg.dutyParams())
	var adv core.Adversary
	if cfg.Replay != nil {
		adv = scenario.NewReplayer(cfg.Replay)
	} else {
		pat, err := buildPattern(cfg, cfg.N, cfg.Seed)
		if err != nil {
			return run{}, err
		}
		if cfg.StopInjectionsAfter > 0 {
			pat = adversary.Stop(pat, cfg.StopInjectionsAfter)
		}
		adv = adversary.New(cfg.advType(), pat)
	}

	tr := metrics.NewTracker()
	tr.TrackStations(cfg.N)
	if se := cfg.Rounds / 512; se > tr.SampleEvery {
		tr.SampleEvery = se
	}
	var tracer core.Tracer
	if cfg.Trace != nil {
		tracer = &trace.Logger{W: cfg.Trace, From: cfg.TraceFrom, To: cfg.TraceUpTo}
	}
	enc, err := cfg.encoder()
	if err != nil {
		return run{}, err
	}
	var injObs func(round int64, injs []core.Injection)
	if enc != nil {
		injObs = enc.Round
	}
	opts := core.Options{
		Strict:            !cfg.Lenient,
		CheckEvery:        conservationCheckEvery(cfg),
		Tracker:           tr,
		Tracer:            tracer,
		ForceChecked:      cfg.ForceChecked,
		InjectionObserver: injObs,
		NoSkip:            cfg.NoSkip,
	}
	// Disruption on the classic single channel: the jammer (or a trace
	// replay of one) and the outage schedule address channel 0. The
	// closure runs once per round, serially, after the round's injection
	// event was recorded — so jam/outage events land behind it in the
	// trace, as the v3 per-round ordering requires.
	disruptor := cfg.disruptor(1)
	outs, err := network.NewOutageSchedule(cfg.Outages, 1)
	if err != nil {
		return run{}, fmt.Errorf("earmac: %w", err)
	}
	if disruptor != nil || outs != nil {
		jamBuf := make([]int, 0, 1)
		opts.Disrupted = func(round int64) core.Disrupt {
			var d core.Disrupt
			if disruptor != nil {
				jamBuf = disruptor.AppendJams(round, jamBuf[:0])
				if len(jamBuf) > 0 {
					d |= core.DisruptJam
					if enc != nil {
						enc.Jam(round, 0)
					}
				}
			}
			if outs != nil {
				if active, starts, dur := outs.Active(0, round); active {
					d |= core.DisruptOutage
					if starts && enc != nil {
						enc.Outage(round, 0, dur)
					}
				}
			}
			return d
		}
		// Span skipping past disrupted stretches needs a horizon over
		// every disruption source. A replayed jam stream (JamReplay)
		// knows its future; a live Jammer spends budget every round and
		// has none, which pins spans (quiescent ticks still consult the
		// closure round by round, so jam accounting stays exact).
		jh, jok := disruptor.(network.JamHorizon)
		if disruptor == nil || jok {
			opts.DisruptHorizon = func(from int64) int64 {
				next := int64(-1)
				if jok {
					next = jh.NextJamRound(from)
				}
				if outs != nil {
					if nd := outs.NextDisrupted(0, from); nd >= 0 && (next < 0 || nd < next) {
						next = nd
					}
				}
				return next
			}
		}
	}
	if grp != nil && enc != nil {
		lastAsleep := 0
		opts.RoundEnd = func(round int64) {
			if a := grp.Asleep(); a != lastAsleep {
				lastAsleep = a
				enc.Sleep(round, 0, a)
			}
		}
	}
	sim := core.NewSim(sys, adv, opts)
	return run{
		step: sim.Run,
		snapshot: func() Report {
			rep := report.FromTracker(sys.Info, cfg.N, tr)
			if grp != nil {
				rep.SleepRounds = grp.SleepRounds()
			}
			return rep
		},
		counters: func() *metrics.Counters { return &tr.Counters },
		enc:      enc,
	}, nil
}

// advType is the injection adversary's (ρ, β) type.
func (c Config) advType() adversary.Type {
	return adversary.Type{Rho: ratio.New(c.RhoNum, c.RhoDen), Beta: ratio.FromInt(c.Beta)}
}

// disruptor is the run's jam source over the given channel count: the
// replayed jam events of a recorded trace, a live budgeted jammer, or
// nil when the run is not jammed.
func (c Config) disruptor(channels int) network.Disruptor {
	switch {
	case c.Replay != nil:
		if jr := network.NewJamReplay(c.Replay); jr != nil {
			return jr // a nil *JamReplay must not become a non-nil interface
		}
	case c.jamming():
		jt := adversary.Type{Rho: ratio.New(c.JamRhoNum, c.JamRhoDen), Beta: ratio.FromInt(c.JamBeta)}
		return network.NewJammer(jt, channels, c.Seed)
	}
	return nil
}

// encoder opens the trace recording of a run with RecordTo set (nil
// otherwise): a header carrying the config, at version 3 when the run
// can produce disruption events.
func (c Config) encoder() (*scenario.Encoder, error) {
	if c.RecordTo == nil {
		return nil, nil
	}
	raw, err := json.Marshal(c)
	if err != nil {
		return nil, fmt.Errorf("earmac: encoding config into trace header: %w", err)
	}
	// Channels is 0 on a single channel: Validate rejects it without a
	// Topology, so v1 headers keep omitting it.
	hdr := scenario.Header{N: c.N, Rounds: c.Rounds, Channels: c.Channels, Config: raw}
	if c.disrupted() {
		hdr.Version = scenario.TraceVersion // kinded events need v3
	}
	return scenario.NewEncoder(c.RecordTo, hdr), nil
}

// conservationCheckEvery is the packet-conservation cadence Run uses
// unless DisableChecks is set (a prime, so it never aligns with phase
// or pattern periods).
func conservationCheckEvery(cfg Config) int64 {
	if cfg.DisableChecks {
		return 0
	}
	return 10007
}

// prepareNetwork assembles a network-of-channels run: one core.Sim per
// channel behind relay queues, an entry adversary splitting the global
// (ρ, β) budget across channels (or a trace-v2 replay source), and the
// aggregate/per-channel report assembly.
func prepareNetwork(cfg Config) (run, error) {
	topo, err := network.Compile(network.Spec{
		Kind: cfg.Topology, Channels: cfg.Channels, N: cfg.N, Links: cfg.Links,
		Seed: cfg.Seed, // the "random" kind's edge set is a function of (Seed, Channels)
	})
	if err != nil {
		return run{}, fmt.Errorf("earmac: %w", err)
	}
	var info core.AlgorithmInfo
	// One duty group per channel (nil entries when duty-cycling is off):
	// the network's Sleepers hook and the report's SleepRounds read them.
	groups := make([]*duty.Group, cfg.Channels)
	build := func(ch int) (*core.System, error) {
		sys, err := registry.Build(cfg.Algorithm, cfg.N, cfg.K)
		if err != nil {
			return nil, err
		}
		sys, groups[ch] = duty.Wrap(sys, cfg.dutyParams())
		if ch == 0 {
			info = sys.Info
		}
		return sys, nil
	}
	var entry network.Source
	if cfg.Replay != nil {
		entry = network.NewReplaySource(cfg.Replay)
	} else {
		pats := make([]adversary.Pattern, cfg.Channels)
		for c := range pats {
			pat, err := buildPattern(cfg, topo.Stations(), cfg.Seed+int64(c)*channelSeedStride)
			if err != nil {
				return run{}, err
			}
			if cfg.StopInjectionsAfter > 0 {
				pat = adversary.Stop(pat, cfg.StopInjectionsAfter)
			}
			pats[c] = pat
		}
		entry, err = network.NewAdversary(topo, cfg.advType(), pats)
		if err != nil {
			return run{}, fmt.Errorf("earmac: %w", err)
		}
	}
	enc, err := cfg.encoder()
	if err != nil {
		return run{}, err
	}
	var rec func(round int64, ch int, injs []core.Injection)
	if enc != nil {
		rec = enc.ChannelRound
	}
	var tracer func(ch int) core.Tracer
	if cfg.Trace != nil {
		tracer = func(ch int) core.Tracer {
			names := make([]string, cfg.N)
			for i := range names {
				names[i] = fmt.Sprintf("c%d.s%d", ch, i)
			}
			return &trace.Logger{W: cfg.Trace, From: cfg.TraceFrom, To: cfg.TraceUpTo, Names: names}
		}
	}
	netOpts := network.Options{
		Strict:        !cfg.Lenient,
		CheckEvery:    conservationCheckEvery(cfg),
		ForceChecked:  cfg.ForceChecked,
		SampleEvery:   cfg.Rounds / 512,
		Workers:       cfg.NetWorkers,
		NoSkip:        cfg.NoSkip,
		TrackStations: true,
		Recorder:      rec,
		Tracer:        tracer,
		Disruptor:     cfg.disruptor(cfg.Channels),
	}
	if netOpts.Outages, err = network.NewOutageSchedule(cfg.Outages, cfg.Channels); err != nil {
		return run{}, fmt.Errorf("earmac: %w", err)
	}
	if cfg.dutyParams().Enabled() {
		netOpts.Sleepers = func(ch int) int { return groups[ch].Asleep() }
	}
	if enc != nil && cfg.disrupted() {
		netOpts.Events = enc
	}
	net, err := network.New(topo, build, entry, netOpts)
	if err != nil {
		return run{}, err
	}
	// The effective per-channel entry budget (the burst floored at 1 —
	// see network.SplitType) goes into the report so rows aren't
	// mislabeled with the nominal (ρ, β) when β < Channels.
	split := network.SplitType(cfg.advType(), cfg.Channels)
	snapshot := func() Report {
		rep := report.FromTracker(info, topo.Stations(), net.Tracker())
		rep.N = cfg.N
		rep.Topology = cfg.Topology
		rep.Channels = cfg.Channels
		rep.EnergyCap = info.EnergyCap * cfg.Channels
		rep.QueueImbalance = net.QueueImbalance()
		rep.Violations, rep.ViolationsTotal = net.Violations(), net.ViolationsTotal()
		rep.PerChannel = perChannelReports(net)
		rep.SplitRho = split.Rho.String()
		rep.SplitBeta = split.Beta.String()
		for _, g := range groups {
			if g != nil {
				rep.SleepRounds += g.SleepRounds()
			}
		}
		return rep
	}
	return run{
		step:     net.Run,
		snapshot: snapshot,
		counters: func() *metrics.Counters { return &net.Tracker().Counters },
		enc:      enc,
		close:    net.Close,
	}, nil
}

func perChannelReports(net *network.Network) []report.Channel {
	topo := net.Topology()
	out := make([]report.Channel, topo.Channels())
	for c := range out {
		tr := net.ChannelTracker(c)
		out[c] = report.Channel{
			Channel:         c,
			Stations:        topo.StationsPerChannel(),
			Injected:        tr.Injected,
			Delivered:       tr.Delivered,
			Relayed:         net.Relayed(c),
			MaxQueue:        tr.MaxQueue,
			MeanEnergy:      tr.MeanEnergy(),
			MeanLatency:     tr.MeanLatency(),
			HeardRounds:     tr.HeardRounds,
			SilentRounds:    tr.SilentRounds,
			CollisionRounds: tr.CollisionRounds,
			JammedRounds:    tr.JammedRounds,
			OutageRounds:    tr.OutageRounds,
			Dropped:         tr.Dropped,
		}
	}
	return out
}

// Run executes one simulation per the config. It is a thin wrapper over
// RunContext with a background context.
func Run(cfg Config) (Report, error) {
	return RunContext(context.Background(), cfg)
}

// ctxCheckEvery bounds how many rounds run between cancellation checks.
const ctxCheckEvery = 16384

// RunContext executes one simulation per the config, honouring ctx
// cancellation and invoking cfg.OnProgress periodically. On cancellation
// it returns the partial Report measured so far alongside the context's
// error.
func RunContext(ctx context.Context, cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	r, err := prepare(cfg)
	if err != nil {
		return Report{}, err
	}
	// finish releases simulator-owned resources (a network's worker
	// team), closes the trace recording (footer with the counters
	// accumulated so far — a cancelled run still yields a replayable,
	// footer-pinned trace), and folds any encoder error into the result.
	finish := func(rep Report, err error) (Report, error) {
		if r.close != nil {
			r.close()
		}
		if r.enc != nil {
			if cerr := r.enc.Close(r.counters()); err == nil && cerr != nil {
				err = fmt.Errorf("earmac: recording trace: %w", cerr)
			}
		}
		return rep, err
	}
	every := cfg.ProgressEvery
	if every <= 0 {
		if every = cfg.Rounds / 64; every < 1 {
			every = 1
		}
	}
	nextMark := every
	lastSnap := int64(-1) // round of the last delivered snapshot
	for done := int64(0); done < cfg.Rounds; {
		if err := ctx.Err(); err != nil {
			rep := r.snapshot()
			// Deliver one closing snapshot at the cancellation round (unless
			// the regular cadence already snapped this exact round), so a
			// consumer streaming progress sees the rounds measured so far
			// before RunContext returns — and nothing after.
			if cfg.OnProgress != nil && done > 0 && done != lastSnap {
				cfg.OnProgress(Progress{Round: done, Total: cfg.Rounds, Report: rep})
			}
			return finish(rep, err)
		}
		chunk := cfg.Rounds - done
		if chunk > ctxCheckEvery {
			chunk = ctxCheckEvery
		}
		if cfg.OnProgress != nil && done+chunk > nextMark {
			chunk = nextMark - done
		}
		if err := r.step(chunk); err != nil {
			return finish(Report{}, err)
		}
		done += chunk
		if cfg.OnProgress != nil && (done == nextMark || done == cfg.Rounds) {
			cfg.OnProgress(Progress{
				Round:  done,
				Total:  cfg.Rounds,
				Report: r.snapshot(),
			})
			lastSnap = done
			for nextMark <= done {
				nextMark += every
			}
		}
	}
	return finish(r.snapshot(), nil)
}
