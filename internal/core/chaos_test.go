package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"earmac/internal/mac"
	"earmac/internal/metrics"
)

// chaosProto acts randomly every round — on/off, listen/transmit, light
// or packet messages — to fuzz the simulator's resolution and accounting
// paths, including collisions, which the deterministic algorithms never
// produce.
type chaosProto struct {
	rng   *rand.Rand
	queue []mac.Packet
	txIdx int
	// offTx makes the station occasionally transmit while switched off
	// (a model violation the simulator must record, not act on).
	offTx bool
}

func (p *chaosProto) Inject(pkt mac.Packet) { p.queue = append(p.queue, pkt) }

func (p *chaosProto) Act(round int64) Action {
	p.txIdx = -1
	if p.offTx && p.rng.Intn(16) == 0 {
		return Action{Transmit: true, Msg: mac.CtrlMsg(mac.MakeControl(2))}
	}
	switch p.rng.Intn(4) {
	case 0:
		return Off()
	case 1:
		return Listen()
	case 2: // light message
		return Transmit(mac.CtrlMsg(mac.MakeControl(4)))
	default:
		if len(p.queue) == 0 {
			return Listen()
		}
		p.txIdx = p.rng.Intn(len(p.queue))
		return Transmit(mac.PacketMsg(p.queue[p.txIdx]))
	}
}

func (p *chaosProto) Observe(round int64, fb mac.Feedback) {
	// On success, drop the transmitted packet whether or not it was
	// delivered (chaos mode loses undelivered packets deliberately; the
	// test disables conservation checking).
	if fb.Kind == mac.FbHeard && p.txIdx >= 0 {
		p.queue = append(p.queue[:p.txIdx], p.queue[p.txIdx+1:]...)
	}
	p.txIdx = -1
}

func (p *chaosProto) QueueLen() int { return len(p.queue) }

type chaosAdv struct {
	rng *rand.Rand
	n   int
	// oob makes roughly one injection in eight name a station or
	// destination outside [0, n).
	oob bool
}

func (a *chaosAdv) Inject(round int64) []Injection {
	injs := make([]Injection, a.rng.Intn(3))
	for i := range injs {
		injs[i] = Injection{Station: a.rng.Intn(a.n), Dest: a.rng.Intn(a.n)}
		if a.oob && a.rng.Intn(8) == 0 {
			if a.rng.Intn(2) == 0 {
				injs[i].Station = a.n
			} else {
				injs[i].Dest = -1
			}
		}
	}
	return injs
}

// TestChaosAccountingConsistency drives random protocols and checks the
// simulator's channel accounting invariants hold for any behaviour:
// every round is exactly one of heard/silent/collision, deliveries never
// exceed heard rounds, and energy stays within [0, n].
func TestChaosAccountingConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		protos := make([]Protocol, n)
		for i := range protos {
			protos[i] = &chaosProto{rng: rand.New(rand.NewSource(seed + int64(i)))}
		}
		system := &System{
			Info:     AlgorithmInfo{Name: "chaos", EnergyCap: n},
			Stations: protos,
		}
		sim := NewSim(system, &chaosAdv{rng: rng, n: n}, Options{})
		if err := sim.Run(2000); err != nil {
			return false
		}
		tr := sim.Tracker()
		if tr.HeardRounds+tr.SilentRounds+tr.CollisionRounds != tr.Rounds {
			return false
		}
		if tr.DeliveryRounds > tr.HeardRounds || tr.LightRounds > tr.HeardRounds {
			return false
		}
		if tr.Delivered > tr.Injected {
			return false
		}
		if tr.MaxEnergy > int64(n) || tr.MaxEnergy < 0 {
			return false
		}
		// Chaos transmits constantly from several stations: with n ≥ 3 we
		// expect all three channel outcomes to occur.
		if n >= 3 && (tr.CollisionRounds == 0 || tr.HeardRounds == 0 || tr.SilentRounds == 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestChaosWithConservationCatchesLoss runs chaos protocols under the
// conservation checker, which must flag the deliberate packet loss.
func TestChaosWithConservationCatchesLoss(t *testing.T) {
	n := 4
	protos := make([]Protocol, n)
	for i := range protos {
		protos[i] = &chaosProto{rng: rand.New(rand.NewSource(int64(i) + 7))}
	}
	system := &System{
		Info:     AlgorithmInfo{Name: "chaos", EnergyCap: n},
		Stations: protos,
	}
	// chaosProto does not implement PacketHolder: the checker must
	// report that rather than crash.
	sim := NewSim(system, &chaosAdv{rng: rand.New(rand.NewSource(3)), n: n}, Options{CheckEvery: 100})
	err := sim.Run(1000)
	if err == nil {
		t.Error("conservation check should fail for protocols without PacketHolder")
	}
}

// chaosRun drives n chaos protocols for the given rounds on the chosen
// path and returns the flat counters.
func chaosRun(t *testing.T, seed int64, n int, rounds int64, opt Options) metrics.Counters {
	t.Helper()
	protos := make([]Protocol, n)
	for i := range protos {
		protos[i] = &chaosProto{rng: rand.New(rand.NewSource(seed + int64(i)))}
	}
	system := &System{
		Info:     AlgorithmInfo{Name: "chaos", EnergyCap: n},
		Stations: protos,
	}
	tr := metrics.NewTracker()
	opt.Tracker = tr
	sim := NewSim(system, &chaosAdv{rng: rand.New(rand.NewSource(seed ^ 0x5eed)), n: n}, opt)
	if sim.FastPath() == (opt.ForceChecked || opt.Tracer != nil) {
		t.Fatal("path selection does not match options")
	}
	if err := sim.Run(rounds); err != nil {
		t.Fatal(err)
	}
	return tr.Counters
}

// TestChaosFastCheckedEquivalence replays identical chaos executions —
// including collisions, light messages, and deliberate packet loss, which
// the deterministic algorithms never produce — through the fast and the
// fully-checked round loop and requires bit-identical flat counters.
func TestChaosFastCheckedEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		n := 2 + int(seed%5)
		fast := chaosRun(t, seed, n, 4000, Options{})
		checked := chaosRun(t, seed, n, 4000, Options{ForceChecked: true})
		if fast != checked {
			t.Errorf("seed %d: fast and checked counters differ:\nfast:    %+v\nchecked: %+v",
				seed, fast, checked)
		}
	}
}

// violatingChaos builds a chaos system that breaks every cheap model
// rule at random — out-of-range injections, transmit-while-off, an
// energy cap of n-1, light messages under a plain-packet declaration —
// on a channel that is jammed or down in some rounds. consults counts
// the Disrupted hook's calls.
func violatingChaos(seed int64, n int, opt Options, consults *int64) *Sim {
	protos := make([]Protocol, n)
	for i := range protos {
		protos[i] = &chaosProto{rng: rand.New(rand.NewSource(seed + int64(i))), offTx: true}
	}
	system := &System{
		Info:     AlgorithmInfo{Name: "chaos", EnergyCap: n - 1, PlainPacket: true},
		Stations: protos,
	}
	opt.Disrupted = func(round int64) Disrupt {
		*consults++
		switch {
		case round%13 == 5:
			return DisruptJam
		case round%17 == 3:
			return DisruptOutage
		case round%29 == 7:
			return DisruptJam | DisruptOutage
		}
		return 0
	}
	return NewSim(system, &chaosAdv{rng: rand.New(rand.NewSource(seed ^ 0x5eed)), n: n, oob: true}, opt)
}

// TestChaosViolationParity pins the violation record across the two
// loop configurations. Lenient: the same counters, the same Violations
// slice, the same ViolationsTotal and the same number of Disrupted
// consults with the checker on (ForceChecked) and off; some seed must
// count past the kept strings. Strict: the run stops in the round of the
// first violation the lenient run records, with that violation's text.
func TestChaosViolationParity(t *testing.T) {
	saturated := 0
	for seed := int64(1); seed <= 12; seed++ {
		n := 2 + int(seed%5)
		const rounds = 2000
		var fastCalls, checkedCalls int64
		fast := violatingChaos(seed, n, Options{}, &fastCalls)
		checked := violatingChaos(seed, n, Options{ForceChecked: true}, &checkedCalls)
		if !fast.FastPath() || checked.FastPath() {
			t.Fatal("path selection does not match options")
		}
		if err := fast.Run(rounds); err != nil {
			t.Fatal(err)
		}
		if err := checked.Run(rounds); err != nil {
			t.Fatal(err)
		}
		ft, ct := fast.Tracker(), checked.Tracker()
		if ft.Counters != ct.Counters {
			t.Errorf("seed %d: counters differ:\nfast:    %+v\nchecked: %+v", seed, ft.Counters, ct.Counters)
		}
		if len(ft.Violations) == 0 {
			t.Fatalf("seed %d: violating chaos recorded no violation", seed)
		}
		if !slices.Equal(ft.Violations, ct.Violations) {
			t.Errorf("seed %d: violation records differ:\nfast:    %q\nchecked: %q", seed, ft.Violations, ct.Violations)
		}
		if ft.ViolationsTotal != ct.ViolationsTotal || ft.ViolationsTotal < int64(len(ft.Violations)) {
			t.Errorf("seed %d: ViolationsTotal %d (fast) / %d (checked) for %d kept strings",
				seed, ft.ViolationsTotal, ct.ViolationsTotal, len(ft.Violations))
		}
		if ft.ViolationsTotal > metrics.MaxViolations {
			saturated++
		}
		if fastCalls != rounds || checkedCalls != rounds {
			t.Errorf("seed %d: Disrupted consulted %d (fast) / %d (checked) times, want %d",
				seed, fastCalls, checkedCalls, rounds)
		}

		// The lenient round of the first violation, stepped one round
		// at a time.
		var calls int64
		lenient := violatingChaos(seed, n, Options{}, &calls)
		for len(lenient.Tracker().Violations) == 0 {
			if err := lenient.Step(); err != nil {
				t.Fatal(err)
			}
		}
		first := lenient.Round() - 1
		want := fmt.Sprintf("round %d: %s", first, lenient.Tracker().Violations[0])
		strict := violatingChaos(seed, n, Options{Strict: true}, &calls)
		err := strict.Run(rounds)
		if err == nil || err.Error() != want {
			t.Errorf("seed %d: strict error %v, want %q", seed, err, want)
		}
		if strict.Round() != first {
			t.Errorf("seed %d: strict run stopped at round %d, want %d", seed, strict.Round(), first)
		}
	}
	if saturated == 0 {
		t.Error("no seed counted past the kept violation strings")
	}
}
