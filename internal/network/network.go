package network

import (
	"fmt"

	"earmac/internal/core"
	"earmac/internal/mac"
	"earmac/internal/metrics"
	"earmac/internal/pool"
)

// Options configures a network run. The per-channel fields mirror
// core.Options and apply to every channel's simulator.
type Options struct {
	// Strict makes per-channel model violations abort the run.
	Strict bool
	// CheckEvery enables each channel's packet-conservation checker.
	CheckEvery int64
	// ForceChecked attaches the checker to every channel's simulator.
	ForceChecked bool
	// SampleEvery sets the aggregate tracker's queue-curve resolution:
	// 0 keeps the metrics.NewTracker default, a negative value disables
	// the aggregate time series entirely (the benchmark setting — curve
	// appends are the one steady-state allocation).
	SampleEvery int64
	// Workers sets the channel-stepping parallelism: 0 means GOMAXPROCS
	// (the pool.Workers convention), 1 forces the serial loop, and any
	// k > 1 steps channels on min(k, C) persistent worker goroutines.
	// Every observable output — counters, per-channel trackers, traces,
	// violations — is bit-identical at any worker count (see Step), so
	// Workers is a pure throughput knob. A non-nil Tracer forces 1: the
	// per-round event log interleaves channel sections through a shared
	// writer and is only deterministic when channels step in index
	// order. Networks with Workers != 1 own goroutines; call Close.
	Workers int
	// TrackStations enables per-station queue peaks on every channel
	// tracker (the network-wide QueueImbalance diagnostic).
	TrackStations bool
	// Recorder, when non-nil, receives every channel's adversarial
	// entry injections (global coordinates) each round, in increasing
	// (round, channel) order — the trace-v2 recording hook. Entries are
	// buffered per channel while the round executes and emitted after
	// its sync point in ascending channel order, so the recorded stream
	// is identical at any worker count. Relay arrivals are not
	// reported: they are derived state, reproduced by routing during
	// replay. The slice is reused and must not be retained.
	Recorder func(round int64, ch int, injs []core.Injection)
	// Tracer, when non-nil, supplies each channel's event tracer (nil
	// returns are fine). Like core.Options.Tracer, a non-nil tracer
	// attaches the checker to that channel's simulator — and forces Workers to
	// 1, so tracers sharing one writer interleave deterministically:
	// all of round t's channel-0 lines before its channel-1 lines.
	Tracer func(ch int) core.Tracer
	// Disruptor, when non-nil, supplies the jammed channels each round
	// (a live Jammer, or a JamReplay during trace replay). It is
	// consulted serially in Step's phase 1, so the per-channel disrupt
	// flags are computed before any worker runs.
	Disruptor Disruptor
	// Outages, when non-nil, is the validated channel-dead schedule. A
	// channel in outage resolves every round as disrupted (nothing
	// delivered) and relay hand-offs destined for it park in a held
	// queue at the network layer until the window ends.
	Outages *OutageSchedule
	// Events, when non-nil, receives jam/outage/sleep events after each
	// round's barrier, in ascending channel order — the trace-v3
	// counterpart of Recorder. Outage events fire once per window, on
	// its first round, carrying the window length; sleep events fire on
	// transitions of a channel's asleep-station count.
	Events EventSink
	// Sleepers, when non-nil, reports channel ch's current count of
	// duty-cycled stations that suppressed their action this round
	// (duty.Group.Asleep). Consulted in the fold, after every station
	// has acted, to drive Events.Sleep transitions.
	Sleepers func(ch int) int
	// NoSkip disables the quiescence fast-forward engine: per-channel
	// O(1) idle ticks and the network-level span barrier (DESIGN.md
	// §16). The escape hatch for A/B timing comparisons — skipping is
	// bit-identical, so results never depend on it.
	NoSkip bool
}

// pending is one relayed packet waiting to enter its next channel.
type pending struct {
	station int // arrival gateway, local to the next channel
	dest    int // within-channel destination, local to the next channel
	meta    netPacket
}

// handoff is one relay hand-off parked in a channel's outbox: a pending
// arrival tagged with the channel it enters next round.
type handoff struct {
	next int
	p    pending
}

// netPacket is the network-level identity of an in-flight packet:
// everything needed to route it onward and to account its end-to-end
// latency. Channel sims know nothing of it — they see ordinary local
// packets — so each channel keeps a metaTable from the local packet ids
// its sim assigns (mirrored via emission order) to metas. A negative
// destCh never occurs on a live packet; metaTable uses it as the empty
// marker.
type netPacket struct {
	origin  int64 // round the packet entered the network
	destCh  int   // final channel
	destLoc int   // final station, local to destCh
}

// metaMinRing is the initial metaTable window size.
const metaMinRing = 16

// metaTable mirrors one channel sim's local packet-id assignment. Ids
// are dense and sequential (the k-th injection the sim consumes gets id
// k), so instead of a Go map the table keeps a power-of-two ring
// indexed by id: the live window is [base, next), slot id&(len-1)
// holds the meta, and destCh < 0 marks a delivered (dead) slot. When
// the window would outgrow the ring, the dead prefix is reclaimed
// first and the ring doubles only if truly full — so register and take
// are allocation-free in steady state and the table never walks more
// than the live window. This is the same index-arena idea as the pktq
// rewrite, with the id itself as the arena index.
type metaTable struct {
	ring []netPacket
	base int64 // oldest id that may still be live
	next int64 // next id the sim will assign
	live int   // registered, undelivered packets
}

// register appends the meta for the next sequential local id.
func (t *metaTable) register(m netPacket) {
	if len(t.ring) == 0 || t.next-t.base == int64(len(t.ring)) {
		t.compactOrGrow()
	}
	t.ring[t.next&int64(len(t.ring)-1)] = m
	t.next++
	t.live++
}

// take removes and returns the meta for local id, reporting whether the
// id was live.
func (t *metaTable) take(id int64) (netPacket, bool) {
	if id < t.base || id >= t.next {
		return netPacket{}, false
	}
	slot := id & int64(len(t.ring)-1)
	m := t.ring[slot]
	if m.destCh < 0 {
		return netPacket{}, false
	}
	t.ring[slot].destCh = -1
	t.live--
	return m, true
}

// compactOrGrow reclaims the dead prefix of the window, doubling the
// ring (re-placing live entries by id) only when the live window spans
// the whole ring.
func (t *metaTable) compactOrGrow() {
	mask := int64(len(t.ring) - 1)
	for t.base < t.next && t.ring[t.base&mask].destCh < 0 {
		t.base++
	}
	if len(t.ring) > 0 && t.next-t.base < int64(len(t.ring)) {
		return
	}
	size := 2 * len(t.ring)
	if size < metaMinRing {
		size = metaMinRing
	}
	old := t.ring
	//earmac:alloc -- amortized ring doubling; steady state never reaches it (TestNetworkZeroAllocs)
	t.ring = make([]netPacket, size)
	for i := range t.ring {
		t.ring[i].destCh = -1
	}
	for id := t.base; id < t.next; id++ {
		t.ring[id&int64(size-1)] = old[id&mask]
	}
}

// chanState bundles everything one channel's step touches: its sim and
// tracker, its relay buffers, its packet-id mirror, and the per-round
// accumulators the deterministic fold consumes. During Step each
// chanState is written only by the worker that owns the channel; the
// fold reads them after the barrier, so no field needs locking.
type chanState struct {
	sim *core.Sim
	trk *metrics.Tracker

	feed  feed      // the sim's adversary: entry injections
	relay relayFeed // the sim's ExtraInjections: relay arrivals

	// entries is this round's raw entry stream (global coordinates),
	// buffered for the post-barrier Recorder flush. Reused every round.
	entries []core.Injection
	// arriving holds the relay arrivals injected this round (filled by
	// the hand-off merge, drained by relayFeed). outbox collects this
	// round's onward deliveries, merged into the destinations' arriving
	// buffers at the next round's hand-off.
	arriving []pending
	outbox   []handoff

	meta metaTable

	// held parks relay arrivals destined for this channel while it is
	// in outage; they drain into arriving (FIFO, ahead of new
	// hand-offs) on the first round the channel is back.
	held []pending

	// Per-round disruption state, written serially in Step's phase 1
	// before dispatch and read by this channel's sim (via its Disrupted
	// hook) and by the fold's event emission.
	disrupt    core.Disrupt
	outStart   bool  // this round opens an outage window
	outDur     int64 // window length when outStart
	lastAsleep int   // last sleep count emitted (transition dedup)

	relayed    int64 // deliveries forwarded onward, cumulative
	prevEnergy int64 // tracker energy already folded into the aggregate

	// Per-round accumulators, reset by stepChannel and folded into the
	// aggregate tracker in ascending channel order after the barrier.
	admitted   int64    // in-range entry injections this round
	deliv      []int64  // end-to-end latencies completed this round
	violations []string // entry violations this round
	err        error
}

// Network composes one core.Sim per channel into a synchronous network:
// lockstep rounds, per-channel adversarial entry, relay queues between
// adjacent channels, and deterministic aggregate metrics.
//
// Aggregate semantics: Injected, Delivered, and the latency figures are
// *end-to-end* (a packet counts once, when it reaches its final
// station, with latency measured from network entry); queue and energy
// figures are network totals per round (relayed packets in flight
// between two channels count toward the queue); the channel-utilization
// counters (heard/silent/collision/light/delivery rounds, control bits)
// are sums over channels. Per-channel trackers additionally expose each
// channel's own counters, where Injected includes relay arrivals and
// latency is per-hop.
//
// All outputs are bit-identical at any Options.Workers value; DESIGN.md
// §13 states the argument. Networks built with Workers != 1 own worker
// goroutines — call Close when done.
type Network struct {
	topo      *Topology
	chans     []*chanState
	entry     Source
	entrySkip SourceSkipper // entry as a SourceSkipper, nil when it has no horizon
	opt       Options

	agg           *metrics.Tracker
	round         int64
	relayInFlight int64 // packets parked in outboxes or held behind outages
	jamBuf        []int // Disruptor scratch, reused every round

	team *pool.Team
}

// New assembles a network. build constructs channel c's system (every
// channel runs its own replica set of topo.StationsPerChannel()
// stations); entry supplies the adversarial entry injections. When the
// resolved Options.Workers is not 1, entry.AppendEntries is called
// concurrently for distinct channels (never for the same channel), so
// a Source must keep its per-channel state independent — Adversary and
// ReplaySource both do.
func New(topo *Topology, build func(ch int) (*core.System, error), entry Source, opt Options) (*Network, error) {
	C := topo.Channels()
	n := &Network{
		topo:  topo,
		chans: make([]*chanState, C),
		entry: entry,
		opt:   opt,
		agg:   metrics.NewTracker(),
	}
	n.entrySkip, _ = entry.(SourceSkipper)
	switch {
	case opt.SampleEvery < 0:
		n.agg.SampleEvery = 0
	case opt.SampleEvery > n.agg.SampleEvery:
		n.agg.SampleEvery = opt.SampleEvery
	}
	for c := 0; c < C; c++ {
		sys, err := build(c)
		if err != nil {
			return nil, fmt.Errorf("network: building channel %d: %w", c, err)
		}
		if sys.N() != topo.StationsPerChannel() {
			return nil, fmt.Errorf("network: channel %d has %d stations, topology says %d",
				c, sys.N(), topo.StationsPerChannel())
		}
		tr := metrics.NewTracker()
		tr.SampleEvery = 0 // the aggregate tracker owns the time series
		if opt.TrackStations {
			tr.TrackStations(sys.N())
		}
		cs := &chanState{trk: tr}
		cs.feed = feed{net: n, cs: cs, ch: c}
		cs.relay = relayFeed{cs: cs}
		n.chans[c] = cs
		var tracer core.Tracer
		if opt.Tracer != nil {
			tracer = opt.Tracer(c)
		}
		ch := c
		copts := core.Options{
			Strict:       opt.Strict,
			CheckEvery:   opt.CheckEvery,
			ForceChecked: opt.ForceChecked,
			Tracer:       tracer,
			Tracker:      tr,
			// Sleep-event emission reads duty.Group.Asleep every round;
			// quiescent ticks advance duty state lazily, so that pairing
			// pins the channel to the classic per-round loop.
			NoSkip:           opt.NoSkip || (opt.Events != nil && opt.Sleepers != nil),
			ExtraInjections:  &cs.relay,
			DeliveryObserver: func(round int64, p mac.Packet) { n.onDelivery(cs, ch, round, p) },
			// Mid-route death (a duty-cycled destination missed an
			// uncontended transmission) must reclaim the packet's
			// mirror-table slot, or the arena would leak one live entry
			// per drop forever.
			DropObserver: func(round int64, p mac.Packet) { n.onDrop(cs, ch, p) },
		}
		if opt.Disruptor != nil || opt.Outages != nil {
			// Flags are computed serially in Step's phase 1; the sim
			// only reads its own channel's copy during dispatch.
			copts.Disrupted = func(int64) core.Disrupt { return cs.disrupt }
		}
		cs.sim = core.NewSim(sys, &cs.feed, copts)
	}
	workers := opt.Workers
	if opt.Tracer != nil {
		workers = 1 // shared-writer tracers need index-order stepping
	}
	n.team = pool.NewTeam(C, workers, n.stepChannel)
	return n, nil
}

// Workers returns the resolved channel-stepping worker count.
func (n *Network) Workers() int { return n.team.Workers() }

// Close releases the worker goroutines behind parallel stepping. It is
// idempotent and cheap; a serial network (resolved Workers == 1) owns
// no goroutines, but calling Close is always correct. The Network must
// not be stepped after Close.
func (n *Network) Close() {
	if n != nil {
		n.team.Close()
	}
}

// feed is channel ch's core.Adversary: it pulls the channel's entry
// injections from the network Source, buffers them for the post-barrier
// Recorder flush, and routes them into local coordinates.
type feed struct {
	net *Network
	cs  *chanState
	ch  int
}

func (f *feed) Inject(round int64) []core.Injection { return f.InjectAppend(round, nil) }

// InjectAppend implements core.InjectAppender.
//
//earmac:hotpath
func (f *feed) InjectAppend(round int64, buf []core.Injection) []core.Injection {
	cs := f.cs
	cs.entries = f.net.entry.AppendEntries(round, f.ch, cs.entries[:0])
	for _, in := range cs.entries {
		buf = f.net.admit(round, f.ch, cs, in, buf)
	}
	return buf
}

// relayFeed is channel ch's core.Options.ExtraInjections: the relay
// arrivals scheduled for this round, already in local coordinates.
type relayFeed struct {
	cs *chanState
}

// InjectAppend implements core.InjectAppender.
//
//earmac:hotpath
func (r *relayFeed) InjectAppend(round int64, buf []core.Injection) []core.Injection {
	cs := r.cs
	for _, p := range cs.arriving {
		buf = append(buf, core.Injection{Station: p.station, Dest: p.dest})
		cs.meta.register(p.meta)
	}
	return buf
}

// admit validates one global entry injection for channel ch, translates
// it into the channel's local coordinates, registers its network
// identity, and appends the local injection. Invalid entries (possible
// only via hand-edited replay traces) are buffered as violations on the
// channel — folded into the aggregate tracker after the barrier — and
// skipped before the channel sim sees them, so local packet-id
// mirroring stays in sync.
func (n *Network) admit(round int64, ch int, cs *chanState, in core.Injection, buf []core.Injection) []core.Injection {
	total := n.topo.Stations()
	if in.Station < 0 || in.Station >= total || in.Dest < 0 || in.Dest >= total ||
		n.topo.ChannelOf(in.Station) != ch {
		cs.violations = append(cs.violations,
			//earmac:alloc -- violation path: only hand-edited replay traces reach it, never a live adversary
			fmt.Sprintf("round %d channel %d: entry injection out of range: %+v", round, ch, in))
		return buf
	}
	destCh := n.topo.ChannelOf(in.Dest)
	m := netPacket{origin: round, destCh: destCh, destLoc: n.topo.Local(in.Dest)}
	var dest int
	if destCh == ch {
		dest = m.destLoc
	} else {
		dest = n.topo.Gateway(ch, n.topo.NextHop(ch, destCh))
	}
	cs.meta.register(m)
	cs.admitted++
	return append(buf, core.Injection{Station: n.topo.Local(in.Station), Dest: dest})
}

// onDelivery is channel ch's DeliveryObserver: a within-channel
// delivery either completes a packet's journey (buffered for the
// post-barrier latency fold) or parks it in the channel's outbox,
// tagged with the next channel on its path, to arrive there next round.
//
//earmac:hotpath
func (n *Network) onDelivery(cs *chanState, ch int, round int64, p mac.Packet) {
	m, ok := cs.meta.take(p.ID)
	if !ok {
		panic(fmt.Sprintf("network: channel %d delivered unregistered packet %v", ch, p))
	}
	if m.destCh == ch {
		cs.deliv = append(cs.deliv, round-m.origin)
		return
	}
	next := n.topo.NextHop(ch, m.destCh)
	var dest int
	if next == m.destCh {
		dest = m.destLoc
	} else {
		dest = n.topo.Gateway(next, n.topo.NextHop(next, m.destCh))
	}
	cs.outbox = append(cs.outbox, handoff{next: next, p: pending{
		station: n.topo.Gateway(next, ch),
		dest:    dest,
		meta:    m,
	}})
	cs.relayed++
}

// onDrop is channel ch's DropObserver: a packet died mid-route (its
// duty-cycled destination — final station or relay gateway — was off on
// an uncontended heard round). The network's only job is to reclaim the
// packet's mirror-table slot; the channel tracker already counted the
// drop, and the aggregate Tracker fold sums those counts end-to-end
// (a packet dies at most once, so the sum is exact).
//
//earmac:hotpath
func (n *Network) onDrop(cs *chanState, ch int, p mac.Packet) {
	if _, ok := cs.meta.take(p.ID); !ok {
		panic(fmt.Sprintf("network: channel %d dropped unregistered packet %v", ch, p))
	}
}

// stepChannel advances one channel by one round: the worker-team body.
// It touches only chanState c (plus the immutable topology and the
// Source's channel-c state), so channels step concurrently without
// locks; everything the fold needs is parked in the chanState.
//
//earmac:hotpath
func (n *Network) stepChannel(c int) {
	cs := n.chans[c]
	cs.admitted = 0
	cs.deliv = cs.deliv[:0]
	cs.err = cs.sim.Step()
}

// Step advances every channel by one lockstep round.
//
// The round has three phases. (1) Relay hand-off: the previous round's
// outboxes are merged into the destination channels' arriving buffers
// in ascending source-channel order — exactly the order the serial loop
// produced them in — so arrival order never depends on scheduling.
// (2) Channel stepping: every channel's sim advances one round on the
// worker team (Options.Workers); the only cross-channel data are the
// immutable topology and the per-channel buffers merged in phase 1, so
// workers never contend. (3) Deterministic fold: after the barrier,
// per-channel accumulators (entry admissions, end-to-end completions,
// violations, recorder buffers, queue/energy totals) are folded into
// the aggregate tracker in ascending channel order. Phases 1 and 3
// iterate channels identically at any worker count, which is why every
// output is bit-identical to the serial loop's.
//
//earmac:hotpath
func (n *Network) Step() error {
	// (1) Disruption flags for the round, computed serially so every
	// channel's sim sees its flags before dispatch, then the relay
	// hand-off: last round's deliveries become this round's arrivals.
	chans := n.chans
	if n.opt.Disruptor != nil || n.opt.Outages != nil {
		for _, cs := range chans {
			cs.disrupt, cs.outStart, cs.outDur = 0, false, 0
		}
		if n.opt.Disruptor != nil {
			n.jamBuf = n.opt.Disruptor.AppendJams(n.round, n.jamBuf[:0])
			for _, c := range n.jamBuf {
				if c < 0 || c >= len(chans) {
					n.agg.Violate("round %d: jam on invalid channel %d", n.round, c)
					continue
				}
				chans[c].disrupt |= core.DisruptJam
			}
		}
		if n.opt.Outages != nil {
			for c, cs := range chans {
				active, starts, dur := n.opt.Outages.Active(c, n.round)
				if active {
					cs.disrupt |= core.DisruptOutage
				}
				cs.outStart, cs.outDur = starts, dur
			}
		}
	}
	for _, cs := range chans {
		cs.arriving = cs.arriving[:0]
		// A channel back from outage drains its held relay arrivals
		// first (FIFO across the window), ahead of new hand-offs.
		if cs.disrupt&core.DisruptOutage == 0 && len(cs.held) > 0 {
			cs.arriving = append(cs.arriving, cs.held...)
			cs.held = cs.held[:0]
		}
	}
	for _, cs := range chans {
		for _, h := range cs.outbox {
			dst := chans[h.next]
			if dst.disrupt&core.DisruptOutage != 0 {
				dst.held = append(dst.held, h.p)
			} else {
				dst.arriving = append(dst.arriving, h.p)
			}
		}
		cs.outbox = cs.outbox[:0]
	}

	// (2) One lockstep round across the worker team.
	n.team.Dispatch()

	// (3) Fold, ascending channel order throughout. Recorder entries
	// and disruption/sleep events interleave per channel so a shared
	// trace encoder sees strictly increasing (round, channel, kind).
	if n.opt.Recorder != nil || n.opt.Events != nil {
		for c, cs := range chans {
			if n.opt.Recorder != nil && len(cs.entries) > 0 {
				n.opt.Recorder(n.round, c, cs.entries)
			}
			if n.opt.Events == nil {
				continue
			}
			if cs.disrupt&core.DisruptJam != 0 {
				n.opt.Events.Jam(n.round, c)
			}
			if cs.outStart {
				n.opt.Events.Outage(n.round, c, cs.outDur)
			}
			if n.opt.Sleepers != nil {
				if v := n.opt.Sleepers(c); v != cs.lastAsleep {
					n.opt.Events.Sleep(n.round, c, v)
					cs.lastAsleep = v
				}
			}
		}
	}
	for c, cs := range chans {
		if cs.err != nil {
			//earmac:alloc -- error propagation: a channel error aborts the run
			return fmt.Errorf("channel %d: %w", c, cs.err)
		}
	}
	var totalQueue, inFlight int64
	totalEnergy := 0
	for _, cs := range chans {
		if cs.admitted > 0 {
			n.agg.ObserveInjections(int(cs.admitted))
		}
		for _, lat := range cs.deliv {
			n.agg.ObserveDelivery(lat)
		}
		if len(cs.violations) > 0 {
			for _, v := range cs.violations {
				n.agg.Violate("%s", v)
			}
			cs.violations = cs.violations[:0]
		}
		totalQueue += cs.trk.FinalQueue
		totalEnergy += int(cs.trk.EnergySum - cs.prevEnergy)
		cs.prevEnergy = cs.trk.EnergySum
		// Relayed packets between channels, plus any parked behind an
		// outage window.
		inFlight += int64(len(cs.outbox) + len(cs.held))
	}
	n.relayInFlight = inFlight
	n.agg.ObserveRound(n.round, totalQueue+inFlight, totalEnergy)
	n.round++
	return nil
}

// Run executes the given number of rounds. Between steps it attempts
// the network-level span skip (see trySpan); at exit it settles every
// channel so station state is exact at the Run boundary.
func (n *Network) Run(rounds int64) error {
	end := n.round + rounds
	for n.round < end {
		if err := n.Step(); err != nil {
			return err
		}
		n.trySpan(end)
	}
	n.settle()
	return nil
}

// Round returns the number of completed rounds.
func (n *Network) Round() int64 { return n.round }

// Topology returns the compiled topology.
func (n *Network) Topology() *Topology { return n.topo }

// Tracker returns the aggregate tracker with the channel-summed
// utilization counters synchronized, ready for report assembly or a
// trace footer. The end-to-end fields (Injected, Delivered, latency,
// queue, energy, Rounds) are maintained live; the utilization sums are
// folded in here because they are pure functions of the per-channel
// counters. Call between rounds (never concurrently with Step).
func (n *Network) Tracker() *metrics.Tracker {
	a := &n.agg.Counters
	a.HeardRounds, a.SilentRounds, a.CollisionRounds = 0, 0, 0
	a.LightRounds, a.DeliveryRounds, a.ControlBits = 0, 0, 0
	a.JammedRounds, a.OutageRounds, a.Dropped = 0, 0, 0
	for _, cs := range n.chans {
		a.HeardRounds += cs.trk.HeardRounds
		a.SilentRounds += cs.trk.SilentRounds
		a.CollisionRounds += cs.trk.CollisionRounds
		a.LightRounds += cs.trk.LightRounds
		a.DeliveryRounds += cs.trk.DeliveryRounds
		a.ControlBits += cs.trk.ControlBits
		a.JammedRounds += cs.trk.JammedRounds
		a.OutageRounds += cs.trk.OutageRounds
		// A packet dies at most once, so summing per-channel drops is
		// the exact end-to-end count.
		a.Dropped += cs.trk.Dropped
	}
	return n.agg
}

// ChannelTracker returns channel ch's own tracker (hop-level counters).
// Call between rounds (never concurrently with Step).
func (n *Network) ChannelTracker(ch int) *metrics.Tracker { return n.chans[ch].trk }

// Relayed returns how many deliveries channel ch forwarded onward.
func (n *Network) Relayed(ch int) int64 { return n.chans[ch].relayed }

// InFlight returns the number of packets currently inside the network:
// registered with some channel or parked in a relay hand-off between
// two channels. Maintained counters — no per-packet walk.
func (n *Network) InFlight() int {
	total := int(n.relayInFlight)
	for _, cs := range n.chans {
		total += cs.meta.live
	}
	return total
}

// QueueImbalance is the network-wide fairness diagnostic: the largest
// per-station queue peak across all channels relative to the mean peak
// (0 unless Options.TrackStations was set).
func (n *Network) QueueImbalance() float64 {
	var sum, max int64
	count := 0
	for _, cs := range n.chans {
		for _, m := range cs.trk.StationMaxQueues() {
			sum += m
			if m > max {
				max = m
			}
			count++
		}
	}
	if count == 0 || sum == 0 {
		return 0
	}
	return float64(max) / (float64(sum) / float64(count))
}

// Violations returns the first metrics.MaxViolations model violations:
// the aggregate tracker's own, then each channel's (prefixed with the
// channel id) in ascending channel order. Entry violations land on the
// aggregate tracker in (round, channel) order regardless of worker count
// — the fold appends them in ascending channel order. ViolationsTotal
// counts them all.
func (n *Network) Violations() []string {
	var out []string
	out = append(out, n.agg.Violations...)
	for c, cs := range n.chans {
		for _, v := range cs.trk.Violations {
			if len(out) == metrics.MaxViolations {
				return out
			}
			out = append(out, fmt.Sprintf("channel %d: %s", c, v))
		}
	}
	return out
}

// ViolationsTotal counts every model violation of the run, the
// aggregate tracker's and each channel's.
func (n *Network) ViolationsTotal() int64 {
	total := n.agg.ViolationsTotal
	for _, cs := range n.chans {
		total += cs.trk.ViolationsTotal
	}
	return total
}
