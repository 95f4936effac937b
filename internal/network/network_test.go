package network

import (
	"strings"
	"testing"

	"earmac/internal/adversary"
	"earmac/internal/core"
	"earmac/internal/mac"
	"earmac/internal/metrics"
	"earmac/internal/scenario"
)

// rrProto is a deliberately simple correct protocol for exercising the
// network fabric: every station stays on, and station (round mod n)
// transmits its oldest packet. With all stations on, every solo
// transmission is a delivery, so routing behaviour is exactly
// predictable.
type rrProto struct {
	id, n int
	queue []mac.Packet
}

func (p *rrProto) Inject(pkt mac.Packet) { p.queue = append(p.queue, pkt) }

func (p *rrProto) Act(round int64) core.Action {
	if int(round%int64(p.n)) == p.id && len(p.queue) > 0 {
		return core.Transmit(mac.PacketMsg(p.queue[0]))
	}
	return core.Listen()
}

func (p *rrProto) Observe(round int64, fb mac.Feedback) {
	if fb.Kind == mac.FbHeard && fb.Msg.HasPacket &&
		len(p.queue) > 0 && fb.Msg.Packet.ID == p.queue[0].ID &&
		int(round%int64(p.n)) == p.id {
		p.queue = p.queue[1:] // own delivery: drop it
	}
}

func (p *rrProto) QueueLen() int { return len(p.queue) }

func (p *rrProto) HeldPackets() []mac.Packet {
	out := make([]mac.Packet, len(p.queue))
	copy(out, p.queue)
	return out
}

func rrBuild(n int) func(ch int) (*core.System, error) {
	return func(ch int) (*core.System, error) {
		stations := make([]core.Protocol, n)
		for i := range stations {
			stations[i] = &rrProto{id: i, n: n}
		}
		return &core.System{
			Info:     core.AlgorithmInfo{Name: "rr", EnergyCap: n},
			Stations: stations,
		}, nil
	}
}

// scriptSource injects a fixed list of global (src, dest) pairs at
// given (round, channel) points.
type scriptSource struct {
	at map[[2]int64][]core.Injection // key: (round, channel)
}

func (s *scriptSource) AppendEntries(round int64, ch int, buf []core.Injection) []core.Injection {
	return append(buf, s.at[[2]int64{round, int64(ch)}]...)
}

func mustCompile(t *testing.T, s Spec) *Topology {
	t.Helper()
	topo, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestRelayAcrossLine traces one packet hop by hop through a 2-channel
// line: entry at channel 0, delivery to its gateway, relay arrival one
// round later, final delivery in channel 1 — with end-to-end latency
// accounted from network entry.
func TestRelayAcrossLine(t *testing.T) {
	topo := mustCompile(t, Spec{Kind: Line, Channels: 2, N: 2})
	src := &scriptSource{at: map[[2]int64][]core.Injection{
		{0, 0}: {{Station: 0, Dest: 3}}, // global 0 (ch 0) -> global 3 (ch 1, local 1)
	}}
	net, err := New(topo, rrBuild(2), src, Options{Strict: true, CheckEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Run(8); err != nil {
		t.Fatal(err)
	}
	tr := net.Tracker()
	if tr.Injected != 1 || tr.Delivered != 1 {
		t.Fatalf("injected %d delivered %d, want 1 and 1", tr.Injected, tr.Delivered)
	}
	// Hop 1 delivers at round 0 (station 0's slot), the relay arrives at
	// round 1, and channel 1's station 0 transmits at round 2: latency 2.
	if tr.MaxLatency != 2 {
		t.Errorf("end-to-end latency %d, want 2", tr.MaxLatency)
	}
	if net.Relayed(0) != 1 || net.Relayed(1) != 0 {
		t.Errorf("relayed = (%d, %d), want (1, 0)", net.Relayed(0), net.Relayed(1))
	}
	if net.InFlight() != 0 {
		t.Errorf("%d packets still in flight", net.InFlight())
	}
	// Hop-level accounting: each channel delivered once.
	if d0, d1 := net.ChannelTracker(0).Delivered, net.ChannelTracker(1).Delivered; d0 != 1 || d1 != 1 {
		t.Errorf("per-channel deliveries (%d, %d), want (1, 1)", d0, d1)
	}
}

// TestMultiHopStar routes through the hub: a packet between two leaves
// of a star crosses three channels.
func TestMultiHopStar(t *testing.T) {
	topo := mustCompile(t, Spec{Kind: Star, Channels: 3, N: 2})
	// Global 2 is channel 1 local 0; global 5 is channel 2 local 1.
	src := &scriptSource{at: map[[2]int64][]core.Injection{
		{0, 1}: {{Station: 2, Dest: 5}},
	}}
	net, err := New(topo, rrBuild(2), src, Options{Strict: true, CheckEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Run(20); err != nil {
		t.Fatal(err)
	}
	tr := net.Tracker()
	if tr.Delivered != 1 {
		t.Fatalf("delivered %d, want 1 (in-flight %d)", tr.Delivered, net.InFlight())
	}
	if net.Relayed(1) != 1 || net.Relayed(0) != 1 {
		t.Errorf("relay counts: leaf %d, hub %d, want 1 and 1", net.Relayed(1), net.Relayed(0))
	}
	if tr.MaxLatency < 2 {
		t.Errorf("two-hop latency %d, want >= 2", tr.MaxLatency)
	}
}

func mkUniformAdversary(t *testing.T, topo *Topology, typ adversary.Type, seed int64) *Adversary {
	t.Helper()
	pats := make([]adversary.Pattern, topo.Channels())
	for c := range pats {
		pats[c] = adversary.Uniform(topo.Stations(), seed+int64(c)*1000003)
	}
	adv, err := NewAdversary(topo, typ, pats)
	if err != nil {
		t.Fatal(err)
	}
	return adv
}

// TestBudgetSplitAdmissible records the entry streams of a loaded run
// and audits every channel against its split bucket — the budget-split
// invariant the network adversary promises.
func TestBudgetSplitAdmissible(t *testing.T) {
	topo := mustCompile(t, Spec{Kind: Clique, Channels: 3, N: 3})
	typ := adversary.T(2, 3, 3)
	var trace scenario.Trace
	rec := func(round int64, ch int, injs []core.Injection) {
		ev := scenario.Event{Round: round, Channel: ch}
		for _, in := range injs {
			ev.Injs = append(ev.Injs, [2]int{in.Station, in.Dest})
		}
		trace.Events = append(trace.Events, ev)
	}
	net, err := New(topo, rrBuild(3), mkUniformAdversary(t, topo, typ, 17), Options{
		Strict: true, CheckEvery: 997, Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Run(6000); err != nil {
		t.Fatal(err)
	}
	if net.Tracker().Injected == 0 {
		t.Fatal("no entry injections recorded")
	}
	if err := scenario.CheckAdmissibleSplit(&trace, SplitType(typ, 3), 3); err != nil {
		t.Errorf("entry stream violates the split contract: %v", err)
	}
	// The global stream (all channels pooled) respects the global type:
	// fold channels together and audit against one bucket.
	var pooled scenario.Trace
	for i := 0; i < len(trace.Events); {
		r := trace.Events[i].Round
		ev := scenario.Event{Round: r}
		for i < len(trace.Events) && trace.Events[i].Round == r {
			ev.Injs = append(ev.Injs, trace.Events[i].Injs...)
			i++
		}
		pooled.Events = append(pooled.Events, ev)
	}
	if err := scenario.CheckAdmissible(&pooled, typ); err != nil {
		t.Errorf("pooled entry stream violates the global contract: %v", err)
	}
}

// TestFastCheckedNetworkEquivalence: identical seeds through the fast
// and fully-checked per-channel paths produce bit-identical aggregate
// and per-channel counters, and replaying the recorded entry stream
// reproduces them again.
func TestFastCheckedNetworkEquivalence(t *testing.T) {
	typ := adversary.T(1, 2, 2)
	build := func(forceChecked bool, entry Source, rec func(int64, int, []core.Injection)) *Network {
		topo := mustCompile(t, Spec{Kind: Line, Channels: 3, N: 3})
		if entry == nil {
			entry = mkUniformAdversary(t, topo, typ, 23)
		}
		net, err := New(topo, rrBuild(3), entry, Options{
			ForceChecked: forceChecked,
			Recorder:     rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	var trace scenario.Trace
	rec := func(round int64, ch int, injs []core.Injection) {
		ev := scenario.Event{Round: round, Channel: ch}
		for _, in := range injs {
			ev.Injs = append(ev.Injs, [2]int{in.Station, in.Dest})
		}
		trace.Events = append(trace.Events, ev)
	}
	fast := build(false, nil, rec)
	if err := fast.Run(4000); err != nil {
		t.Fatal(err)
	}
	checked := build(true, nil, nil)
	if err := checked.Run(4000); err != nil {
		t.Fatal(err)
	}
	if fast.Tracker().Counters != checked.Tracker().Counters {
		t.Errorf("fast and checked aggregates differ:\nfast:    %+v\nchecked: %+v",
			fast.Tracker().Counters, checked.Tracker().Counters)
	}
	for c := 0; c < 3; c++ {
		if fast.ChannelTracker(c).Counters != checked.ChannelTracker(c).Counters {
			t.Errorf("channel %d counters differ between paths", c)
		}
	}
	replay := build(false, NewReplaySource(&trace), nil)
	if err := replay.Run(4000); err != nil {
		t.Fatal(err)
	}
	if replay.Tracker().Counters != fast.Tracker().Counters {
		t.Errorf("replayed aggregate differs:\nreplay: %+v\nlive:   %+v",
			replay.Tracker().Counters, fast.Tracker().Counters)
	}
}

// TestAggregateRollup: the aggregate utilization counters are the exact
// sums of the per-channel counters, and end-to-end packet conservation
// holds (entries = final deliveries + in flight).
func TestAggregateRollup(t *testing.T) {
	topo := mustCompile(t, Spec{Kind: Star, Channels: 4, N: 3})
	net, err := New(topo, rrBuild(3), mkUniformAdversary(t, topo, adversary.T(3, 4, 2), 5), Options{
		Strict: true, CheckEvery: 1009, TrackStations: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Run(5000); err != nil {
		t.Fatal(err)
	}
	agg := net.Tracker()
	var heard, silent, coll, light, deliv, ctrl, hopInjected int64
	for c := 0; c < 4; c++ {
		tr := net.ChannelTracker(c)
		heard += tr.HeardRounds
		silent += tr.SilentRounds
		coll += tr.CollisionRounds
		light += tr.LightRounds
		deliv += tr.DeliveryRounds
		ctrl += tr.ControlBits
		hopInjected += tr.Injected
	}
	if agg.HeardRounds != heard || agg.SilentRounds != silent || agg.CollisionRounds != coll ||
		agg.LightRounds != light || agg.DeliveryRounds != deliv || agg.ControlBits != ctrl {
		t.Errorf("aggregate utilization is not the channel sum:\nagg: %+v", agg.Counters)
	}
	if agg.Rounds != 5000 {
		t.Errorf("aggregate rounds %d, want 5000", agg.Rounds)
	}
	// Per-round rollup sanity: every round all 4×3 stations are on.
	if agg.MaxEnergy != 12 || agg.EnergySum != 5000*12 {
		t.Errorf("aggregate energy (max %d, sum %d), want (12, %d)", agg.MaxEnergy, agg.EnergySum, 5000*12)
	}
	if got := agg.Injected - agg.Delivered; got != int64(net.InFlight()) {
		t.Errorf("conservation: injected-delivered = %d but %d in flight", got, net.InFlight())
	}
	// Relay arrivals inflate hop-level injections beyond entries.
	if hopInjected < agg.Injected {
		t.Errorf("hop injections %d below entries %d", hopInjected, agg.Injected)
	}
	if len(net.Violations()) != 0 {
		t.Errorf("violations: %v", net.Violations())
	}
}

// TestViolationsBounded: a violating multi-channel run keeps the first
// metrics.MaxViolations strings in (aggregate, ascending channel) order
// and counts every violation in ViolationsTotal.
func TestViolationsBounded(t *testing.T) {
	const channels, rounds = 8, 60
	topo := mustCompile(t, Spec{Kind: Line, Channels: channels, N: 3})
	build := func(ch int) (*core.System, error) {
		sys, err := rrBuild(3)(ch)
		sys.Info.EnergyCap = 2 // every station listens: one violation per channel-round
		return sys, err
	}
	net, err := New(topo, build, mkUniformAdversary(t, topo, adversary.T(1, 4, 2), 5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	if err := net.Run(rounds); err != nil {
		t.Fatal(err)
	}
	vs := net.Violations()
	if len(vs) != metrics.MaxViolations {
		t.Fatalf("%d violation strings, want %d", len(vs), metrics.MaxViolations)
	}
	if !strings.HasPrefix(vs[0], "channel 0: ") || !strings.HasPrefix(vs[rounds-1], "channel 0: ") ||
		!strings.HasPrefix(vs[rounds], "channel 1: ") {
		t.Errorf("order: %q, %q, %q", vs[0], vs[rounds-1], vs[rounds])
	}
	if got := net.ViolationsTotal(); got != channels*rounds {
		t.Errorf("ViolationsTotal %d, want %d", got, channels*rounds)
	}
}
