package core

import (
	"fmt"
	"slices"

	"earmac/internal/mac"
	"earmac/internal/metrics"
	"earmac/internal/sched"
)

// Options configures a simulation run.
type Options struct {
	// Strict makes model violations return errors instead of only being
	// recorded in the tracker. Tests run strict; long benchmarks may not.
	Strict bool
	// CheckEvery enables the packet-conservation invariant check every so
	// many rounds (0 disables). Checking requires all stations to
	// implement PacketHolder and costs O(total queue) per check.
	CheckEvery int64
	// Tracker receives statistics; a fresh one is created when nil.
	Tracker *metrics.Tracker
	// Tracer, when non-nil, receives a full view of every round.
	Tracer Tracer
	// InjectionObserver, when non-nil, receives every round's injections
	// right after the adversary produces them (before range validation),
	// with or without the checker — the hook the trace recorder
	// (internal/scenario) captures replayable runs with. The slice is
	// reused between rounds and must not be retained. Unlike Tracer it
	// does not attach the checker. Externally-sourced injections
	// (ExtraInjections) are NOT reported: they are derived state, fully
	// reproducible from the recorded adversarial stream.
	InjectionObserver func(round int64, injs []Injection)
	// ExtraInjections, when non-nil, supplies externally-sourced
	// injections — relay arrivals from a surrounding topology layer
	// (internal/network) — appended after the adversary's injections
	// each round. It reuses the InjectAppender buffer contract, so the
	// steady-state round loop stays allocation-free; when nil (every
	// single-channel run) the hook costs one pointer comparison.
	ExtraInjections InjectAppender
	// DeliveryObserver, when non-nil, receives every delivered packet,
	// in the round it was delivered. It is the hook relay layers
	// intercept deliveries with; like InjectionObserver it does not
	// attach the checker.
	DeliveryObserver func(round int64, p mac.Packet)
	// ForceChecked attaches the checker even when no other option asks
	// for it (see Sim.FastPath). Used by the equivalence tests; never
	// needed in normal operation.
	ForceChecked bool
	// Disrupted, when non-nil, is consulted exactly once per round —
	// right after the round's injections are gathered, before any
	// station acts — and returns the round's disruption flags. A disrupted
	// round delivers nothing: every switched-on station observes
	// FbCollision regardless of how many stations transmitted (jamming
	// noise and a dead channel are indistinguishable from a collision at
	// the receivers), stations still spend their energy, and the tracker
	// counts the round as a collision plus the matching Jammed/Outaged
	// counter. The hook runs with the checker off too, so it must not
	// allocate in steady state.
	Disrupted func(round int64) Disrupt
	// DropObserver, when non-nil, receives every packet that dies
	// mid-route: a heard round whose destination station is switched off
	// under a direct algorithm (see Counters.Dropped for the exact
	// semantics). Topology layers use it to reclaim per-packet relay
	// state; like DeliveryObserver it runs with or without the checker.
	DropObserver func(round int64, p mac.Packet)
	// RoundEnd, when non-nil, runs at the very end of every round,
	// after all statistics for the round are folded. It is
	// the hook duty-cycle recorders use to observe per-round sleep
	// state at a point where every station has acted. Because it
	// observes every round, it disables the quiescence fast-forward
	// engine entirely.
	RoundEnd func(round int64)
	// NoSkip disables the quiescence fast-forward engine (quiesce.go)
	// even when the system declares an idle profile, forcing the
	// classic per-round loop. The engine is bit-identical by
	// construction; the flag exists as an escape hatch and for the
	// equivalence tests.
	NoSkip bool
	// DisruptHorizon, when non-nil alongside Disrupted, returns a
	// lower bound on the earliest round >= from whose Disrupted
	// consult may return nonzero (-1: never). It gates the span-skip
	// tier: a Disrupted hook without a horizon pins spans, because the
	// hook may have per-round side effects the engine cannot replay
	// (quiescent ticks still consult it every round).
	DisruptHorizon func(from int64) int64
}

// Disrupt is a bit set of reasons a round was externally disrupted.
type Disrupt uint8

const (
	// DisruptJam marks a round jammed by a budgeted jamming adversary.
	DisruptJam Disrupt = 1 << iota
	// DisruptOutage marks a round inside a channel outage window.
	DisruptOutage
)

// Sim drives one system against one adversary.
//
// Every round runs through one kernel, step, which applies the model's
// per-round rules — injection ranges, the energy cap, transmit-while-off,
// the plain-packet discipline, the jam/outage override and mid-route
// drops — the same way on every run. The validations that cost more
// than a comparison move behind an optional checker, attached at
// construction in strict mode, when a Tracer is set, when conservation
// checking (Options.CheckEvery) is on, or with Options.ForceChecked:
//
//   - With the checker attached, the kernel also scans the oblivious
//     schedule for conformance, keeps the live/delivered conservation
//     bookkeeping, hands the Tracer the round's action vector and
//     delivered packets, and in strict mode stops at the first
//     violation.
//   - Without it (FastPath), the kernel allocates nothing: injections
//     land in a reused scratch buffer (see InjectAppender), all
//     statistics go to the tracker's flat counters, and quiescent
//     stretches may be fast-forwarded (quiesce.go). The tracker totals
//     and violation record match a lenient checked run exactly; only
//     schedule-conformance violations go unnoticed.
type Sim struct {
	sys     *System
	adv     Adversary
	opt     Options
	tracker *metrics.Tracker
	chk     *checker // nil: the steady-state fast path

	// Adversary capabilities, resolved once so the round loop performs no
	// per-round type assertions.
	advAppend InjectAppender
	roundObs  RoundObserver
	queueObs  QueueObserver
	fbObs     FeedbackObserver
	injObs    func(round int64, injs []Injection)
	extInj    InjectAppender
	delObs    func(round int64, p mac.Packet)
	disrupt   func(round int64) Disrupt
	dropObs   func(round int64, p mac.Packet)
	roundEnd  func(round int64)

	round    int64
	nextID   int64
	on       []bool
	queueLen []int
	injBuf   []Injection // reused injection scratch

	// Quiescence fast-forward state (fast path only; see quiesce.go).
	skipOK      bool          // engine enabled for this sim
	quiescent   bool          // currently inside a quiescent stretch
	qFrom       int64         // first round the stations have not executed
	skippers    []mac.Skipper // per-station, populated only when skipOK
	advSkip     EventSkipper  // adversary skip contract, when supported
	dhor        func(from int64) int64
	idleCycle   []IdleRound // reused idle-profile buffer
	idleAnchor  int64       // round idleCycle[0] describes
	idleBreakAt int64       // profile horizon (-1: indefinite)
	prefEnergy  []int64     // prefix sums over idleCycle (span accrual)
	prefLight   []int64
	prefCtrl    []int64
	cycleMaxE   int
}

// checker is the per-round work a Sim does only when validation or
// tracing was asked for.
type checker struct {
	schedule sched.Schedule // oblivious schedule to scan (nil: none)
	tracer   Tracer
	actions  []Action     // the round's action vector (only with a tracer)
	delBuf   []mac.Packet // the round's delivered packets (only with a tracer)
	// live maps in-flight packet IDs to their packets and delivered
	// records consumed ones; both nil unless CheckEvery > 0.
	live      map[int64]mac.Packet
	delivered map[int64]bool
}

// retire moves p out of conservation tracking as consumed (delivered,
// or dropped mid-route) and reports whether it had been consumed before.
func (c *checker) retire(p mac.Packet) (again bool) {
	if c.live == nil {
		return false
	}
	again = c.delivered[p.ID]
	c.delivered[p.ID] = true
	delete(c.live, p.ID)
	return again
}

// NewSim prepares a simulation starting at round 0.
func NewSim(sys *System, adv Adversary, opt Options) *Sim {
	t := opt.Tracker
	if t == nil {
		t = metrics.NewTracker()
	}
	s := &Sim{
		sys:      sys,
		adv:      adv,
		opt:      opt,
		tracker:  t,
		on:       make([]bool, sys.N()),
		queueLen: make([]int, sys.N()),
	}
	if adv != nil {
		s.advAppend, _ = adv.(InjectAppender)
		s.roundObs, _ = adv.(RoundObserver)
		s.queueObs, _ = adv.(QueueObserver)
		s.fbObs, _ = adv.(FeedbackObserver)
	}
	s.injObs = opt.InjectionObserver
	s.extInj = opt.ExtraInjections
	s.delObs = opt.DeliveryObserver
	s.disrupt = opt.Disrupted
	s.dropObs = opt.DropObserver
	s.roundEnd = opt.RoundEnd
	if opt.Strict || opt.CheckEvery > 0 || opt.Tracer != nil || opt.ForceChecked {
		s.chk = &checker{schedule: sys.Schedule, tracer: opt.Tracer}
		if opt.Tracer != nil {
			s.chk.actions = make([]Action, sys.N())
		}
		if opt.CheckEvery > 0 {
			s.chk.live = make(map[int64]mac.Packet)
			s.chk.delivered = make(map[int64]bool)
		}
	}
	s.dhor = opt.DisruptHorizon
	if adv != nil {
		s.advSkip, _ = adv.(EventSkipper)
	}
	// The fast-forward engine needs an idle profile, a Skipper at every
	// station, and the absence of every per-round observer the engine
	// cannot replay: RoundEnd and the adaptive-adversary hooks see each
	// round individually, so any of them pins the loop to per-round.
	if s.chk == nil && !opt.NoSkip && sys.Idle != nil && opt.RoundEnd == nil &&
		s.roundObs == nil && s.queueObs == nil && s.fbObs == nil {
		skippers := make([]mac.Skipper, len(sys.Stations))
		ok := true
		for i, st := range sys.Stations {
			if skippers[i], ok = st.(mac.Skipper); !ok {
				break
			}
		}
		if ok {
			s.skippers = skippers
			s.skipOK = true
		}
	}
	return s
}

// Tracker returns the statistics collector.
func (s *Sim) Tracker() *metrics.Tracker { return s.tracker }

// Round returns the number of completed rounds.
func (s *Sim) Round() int64 { return s.round }

// System returns the simulated system.
func (s *Sim) System() *System { return s.sys }

// FastPath reports whether the sim runs without the checker: no strict
// mode, no conservation checking, no tracer, not forced on. Only such a
// sim is allocation-free in steady state and may fast-forward.
func (s *Sim) FastPath() bool { return s.chk == nil }

// SkipCapable reports whether the quiescence fast-forward engine was
// enabled at construction: the fast path was selected, NoSkip is off,
// the system declares an idle profile, every station implements
// mac.Skipper, and no per-round observer pins the loop.
func (s *Sim) SkipCapable() bool { return s.skipOK }

// violate records a model violation; in strict mode it also returns the
// error that stops the run.
func (s *Sim) violate(format string, args ...any) error {
	s.tracker.Violate(format, args...)
	if s.opt.Strict {
		//earmac:alloc -- strict mode only: the run stops at this error
		return fmt.Errorf("round %d: "+format, append([]any{s.round}, args...)...)
	}
	return nil
}

// Run executes the given number of rounds. In strict mode it stops at the
// first model violation. On the fast path quiescent stretches advance by
// O(1) ticks and closed-form span skips (quiesce.go); Run settles any
// pending skip before returning, so station state is exact at the exit.
func (s *Sim) Run(rounds int64) error {
	end := s.round + rounds
	for s.round < end {
		if err := s.advance(end); err != nil {
			return err
		}
	}
	s.Settle()
	return nil
}

// Step executes one round.
func (s *Sim) Step() error { return s.advance(s.round + 1) }

// advance executes round Round(), by the quiescence engine inside a
// quiescent stretch and by the kernel otherwise, then runs the
// conservation check every Options.CheckEvery rounds. end bounds a span
// skip.
func (s *Sim) advance(end int64) error {
	if s.quiescent {
		return s.quiescentAdvance(end)
	}
	t := s.round
	injs := s.gather(t)
	if err := s.step(t, injs, s.disruption(t)); err != nil {
		return err
	}
	if s.opt.CheckEvery > 0 && s.round%s.opt.CheckEvery == 0 {
		return s.CheckConservation()
	}
	return nil
}

// inject obtains this round's injections, reusing the scratch buffer when
// the adversary supports the append contract.
func (s *Sim) inject(t int64) []Injection {
	if s.advAppend != nil {
		s.injBuf = s.advAppend.InjectAppend(t, s.injBuf[:0])
		return s.injBuf
	}
	if s.adv != nil {
		return s.adv.Inject(t)
	}
	return nil
}

// gather assembles one round's full injection list: the adversary's
// injections (reported to InjectionObserver) followed by the
// externally-sourced ones (ExtraInjections; not reported — they are
// derived state, reproducible from the adversarial stream). With no
// external injector it is exactly inject plus the observer call, so
// single-channel runs pay nothing for the hook.
func (s *Sim) gather(t int64) []Injection {
	injs := s.inject(t)
	if s.injObs != nil && len(injs) > 0 {
		s.injObs(t, injs)
	}
	if s.extInj == nil {
		return injs
	}
	if s.advAppend == nil {
		// injs is owned by the adversary (or nil); move it into the
		// scratch buffer before appending the external stream.
		s.injBuf = append(s.injBuf[:0], injs...)
	}
	s.injBuf = s.extInj.InjectAppend(t, s.injBuf)
	return s.injBuf
}

// disruption consults the Disrupted hook for round t (0 without one).
func (s *Sim) disruption(t int64) Disrupt {
	if s.disrupt == nil {
		return 0
	}
	return s.disrupt(t)
}

// NextPacketID returns the ID the next accepted injection will be
// assigned. IDs are handed out sequentially, in injection order, to
// every in-range injection; topology layers use this to mirror the
// simulator's ID assignment without a per-packet callback.
func (s *Sim) NextPacketID() int64 { return s.nextID }

// step is the round kernel: it executes round t given the round's
// injections (gather) and disruption flags (the Disrupted consult),
// which the caller has already obtained. The consult commutes with
// everything up to channel resolution, so consulting it first lets the
// quiescence engine decide whether to wake before any station acts.
// Without the checker it allocates nothing and returns nil; with one it
// also does the checker's work and, in strict mode, returns the first
// violation, leaving the round unfinished.
//
//earmac:hotpath
func (s *Sim) step(t int64, injs []Injection, disrupted Disrupt) error {
	n := s.sys.N()
	tr := s.tracker
	c := s.chk

	// 1. Injection.
	for _, in := range injs {
		if in.Station < 0 || in.Station >= n || in.Dest < 0 || in.Dest >= n {
			if err := s.violate("injection out of range: %+v", in); err != nil {
				return err
			}
			continue
		}
		p := mac.Packet{ID: s.nextID, Src: in.Station, Dest: in.Dest, Injected: t}
		s.nextID++
		if c != nil && c.live != nil {
			c.live[p.ID] = p
		}
		s.sys.Stations[in.Station].Inject(p)
		tr.Injected++
	}

	// 2. Station actions. Only the transmitted message is kept, unless
	// a tracer wants the whole action vector.
	traced := c != nil && c.tracer != nil
	energy := 0
	transmitters := 0
	lastTx := -1
	var txMsg mac.Message
	for i, st := range s.sys.Stations {
		a := st.Act(t)
		s.on[i] = a.On
		if a.On {
			energy++
		}
		if a.Transmit {
			if !a.On {
				if err := s.violate("station %d transmits while off", i); err != nil {
					return err
				}
				a.Transmit = false
			} else {
				transmitters++
				lastTx = i
				txMsg = a.Msg
			}
		}
		if traced {
			c.actions[i] = a
		}
	}

	// 3. Model validation.
	if energy > s.sys.Info.EnergyCap {
		if err := s.violate("%d stations on exceeds energy cap %d", energy, s.sys.Info.EnergyCap); err != nil {
			return err
		}
	}
	if c != nil && c.schedule != nil {
		for i := 0; i < n; i++ {
			if s.on[i] != c.schedule.On(i, t) {
				if err := s.violate("station %d violates oblivious schedule: on=%v", i, s.on[i]); err != nil {
					return err
				}
			}
		}
	}
	if s.sys.Info.PlainPacket && transmitters == 1 && (!txMsg.HasPacket || len(txMsg.Ctrl) > 0) {
		if err := s.violate("station %d violates plain-packet discipline (packet=%v, ctrl=%d bits)",
			lastTx, txMsg.HasPacket, txMsg.Ctrl.Bits()); err != nil {
			return err
		}
	}

	// 4. Channel resolution and ground-truth delivery. An externally
	// disrupted round (jam or outage) overrides the contention outcome:
	// nothing is delivered and every listener observes a collision.
	if traced {
		c.delBuf = c.delBuf[:0]
	}
	var fb mac.Feedback
	switch {
	case disrupted != 0:
		fb.Kind = mac.FbCollision
		tr.CollisionRounds++
		if disrupted&DisruptJam != 0 {
			tr.JammedRounds++
		}
		if disrupted&DisruptOutage != 0 {
			tr.OutageRounds++
		}
	case transmitters == 0:
		fb.Kind = mac.FbSilence
		tr.SilentRounds++
	case transmitters == 1:
		fb = mac.Feedback{Kind: mac.FbHeard, Msg: txMsg}
		tr.HeardRounds++
		tr.ControlBits += int64(txMsg.Ctrl.Bits())
		p := txMsg.Packet
		if txMsg.IsLight() {
			tr.LightRounds++
		} else if s.on[p.Dest] {
			tr.DeliveryRounds++
			tr.ObserveDelivery(t - p.Injected)
			if s.delObs != nil {
				s.delObs(t, p)
			}
			if traced {
				c.delBuf = append(c.delBuf, p)
			}
			if c != nil && c.retire(p) {
				if err := s.violate("packet %v delivered twice", p); err != nil {
					return err
				}
			}
		} else if s.sys.Info.Direct {
			// A direct algorithm's transmitter treats an uncontended
			// heard round as an acknowledgement and retires the packet,
			// but the destination was switched off (duty-cycled): the
			// packet dies mid-route, and leaves conservation tracking
			// as consumed — no station may hold it afterwards.
			tr.Dropped++
			if s.dropObs != nil {
				s.dropObs(t, p)
			}
			if c != nil {
				c.retire(p)
			}
		}
	default:
		fb.Kind = mac.FbCollision
		tr.CollisionRounds++
	}

	// 5. Feedback to switched-on stations.
	for i, st := range s.sys.Stations {
		if s.on[i] {
			st.Observe(t, fb)
		}
	}

	if s.roundObs != nil {
		s.roundObs.ObserveRound(t, s.on)
	}
	if s.fbObs != nil {
		s.fbObs.ObserveFeedback(t, fb)
	}
	if traced {
		c.tracer.TraceRound(t, c.actions, fb, c.delBuf)
	}

	// 6. The fold.
	var totalQueue int64
	for i, st := range s.sys.Stations {
		l := st.QueueLen()
		s.queueLen[i] = l
		totalQueue += int64(l)
	}
	if s.queueObs != nil {
		s.queueObs.ObserveQueues(t, s.queueLen)
	}
	tr.ObserveStationQueues(s.queueLen)
	tr.ObserveRound(t, totalQueue, energy)
	if s.roundEnd != nil {
		s.roundEnd(t)
	}
	s.round++
	if s.skipOK && totalQueue == 0 && !s.quiescent {
		s.tryEnterQuiescence()
	}
	return nil
}

// CheckConservation verifies exactly-once packet ownership: every
// in-flight packet is held by exactly one station, no station holds a
// delivered or unknown packet, and (for algorithms declared direct) every
// packet still sits in the station it was injected into. It requires
// conservation tracking (Options.CheckEvery > 0) and stations
// implementing PacketHolder.
func (s *Sim) CheckConservation() error {
	if s.chk == nil || s.chk.live == nil {
		return fmt.Errorf("core: conservation tracking disabled (set Options.CheckEvery)")
	}
	live, delivered := s.chk.live, s.chk.delivered
	seen := make(map[int64]int, len(live))
	for i, st := range s.sys.Stations {
		h, ok := st.(PacketHolder)
		if !ok {
			return fmt.Errorf("core: station %d does not implement PacketHolder", i)
		}
		for _, p := range h.HeldPackets() {
			seen[p.ID]++
			if seen[p.ID] > 1 {
				if err := s.violate("packet %v held by more than one station", p); err != nil {
					return err
				}
			}
			if delivered[p.ID] {
				if err := s.violate("station %d holds already-delivered packet %v", i, p); err != nil {
					return err
				}
			} else if _, isLive := live[p.ID]; !isLive {
				if err := s.violate("station %d holds unknown packet %v", i, p); err != nil {
					return err
				}
			}
			if s.sys.Info.Direct && i != p.Src {
				if err := s.violate("direct algorithm relayed packet %v to station %d", p, i); err != nil {
					return err
				}
			}
		}
	}
	// Check live packets in id order, so multi-packet violation reports
	// are deterministic (violations land in reports and trace footers;
	// map order must never reach them).
	ids := make([]int64, 0, len(live))
	for id := range live { //earmac:nondet -- key collection only; ids are sorted before any observable use
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		if seen[id] != 1 {
			if err := s.violate("in-flight packet %v held by %d stations", live[id], seen[id]); err != nil {
				return err
			}
		}
	}
	return nil
}

// LivePackets returns the number of injected-but-undelivered packets
// (available only with conservation tracking).
func (s *Sim) LivePackets() int {
	if s.chk == nil {
		return 0
	}
	return len(s.chk.live)
}
