package core

// The quiescence fast-forward engine (DESIGN.md §16). All methods here
// run only on the fast path with skipOK resolved at NewSim; a sim with
// the checker attached never skips. See skip.go for the contracts.

// tryEnterQuiescence is called after a completed fast round whose
// total queue was zero; s.round is the next unexecuted round. It asks
// every station whether its idle behavior is fast-forwardable and the
// profiler for the system's idle cycle, anchoring both at s.round.
func (s *Sim) tryEnterQuiescence() {
	for _, sk := range s.skippers {
		if !sk.Quiescent() {
			return
		}
	}
	s.idleCycle = s.sys.Idle.AppendIdleCycle(s.round, s.idleCycle[:0])
	if len(s.idleCycle) == 0 {
		return // profiler declined from this state
	}
	s.idleAnchor = s.round
	s.qFrom = s.round
	s.idleBreakAt = -1
	if h, ok := s.sys.Idle.(IdleHorizon); ok {
		s.idleBreakAt = h.NextIdleBreak(s.round)
	}
	s.buildIdlePrefix()
	s.quiescent = true
}

// buildIdlePrefix precomputes one-cycle prefix sums for the span-skip
// accrual; buffers are reused so re-entering quiescence allocates
// nothing in steady state.
func (s *Sim) buildIdlePrefix() {
	p := len(s.idleCycle)
	if cap(s.prefEnergy) < p+1 {
		//earmac:alloc -- one-time growth to the profile's cycle length, reused afterwards
		s.prefEnergy = make([]int64, p+1)
		//earmac:alloc -- one-time growth to the profile's cycle length, reused afterwards
		s.prefLight = make([]int64, p+1)
		//earmac:alloc -- one-time growth to the profile's cycle length, reused afterwards
		s.prefCtrl = make([]int64, p+1)
	}
	s.prefEnergy = s.prefEnergy[:p+1]
	s.prefLight = s.prefLight[:p+1]
	s.prefCtrl = s.prefCtrl[:p+1]
	s.prefEnergy[0], s.prefLight[0], s.prefCtrl[0] = 0, 0, 0
	s.cycleMaxE = 0
	for i, e := range s.idleCycle {
		s.prefEnergy[i+1] = s.prefEnergy[i] + int64(e.Energy)
		s.prefLight[i+1] = s.prefLight[i]
		s.prefCtrl[i+1] = s.prefCtrl[i]
		if e.Light {
			s.prefLight[i+1]++
			s.prefCtrl[i+1] += int64(e.CtrlBits)
		}
		if e.Energy > s.cycleMaxE {
			s.cycleMaxE = e.Energy
		}
	}
}

// idleEntry returns the profile entry describing round t.
func (s *Sim) idleEntry(t int64) IdleRound {
	return s.idleCycle[(t-s.idleAnchor)%int64(len(s.idleCycle))]
}

// prefRange sums a one-cycle prefix array over profile offsets [a, b)
// measured from the anchor, extended periodically.
func (s *Sim) prefRange(pref []int64, a, b int64) int64 {
	p := int64(len(s.idleCycle))
	total := pref[p]
	return (b/p)*total + pref[b%p] - ((a/p)*total + pref[a%p])
}

// quiescentAdvance executes one quiescent round — an O(1) tick, or a
// wake-up run of the round kernel when the round carries an event — and
// then attempts a span skip toward end. The per-round external state
// (adversary bucket, replay cursors, the Disrupted hook) advances
// exactly as on the classic loop: gather and the disruption consult
// run for every ticked round. The engine runs only without the
// checker, so the kernel's error is always nil.
//
//earmac:hotpath
func (s *Sim) quiescentAdvance(end int64) error {
	t := s.round
	injs := s.gather(t)
	d := s.disruption(t)
	// A wake-up is forced by a pending injection, the idle-profile
	// horizon, or a disrupted round some station would observe (the
	// collision feedback alters station state, so it cannot be ticked;
	// with zero idle energy nobody is listening and the tick just
	// counts the jammed/outaged round).
	if len(injs) > 0 || t == s.idleBreakAt || (d != 0 && s.idleEntry(t).Energy > 0) {
		s.wake(t)
		return s.step(t, injs, d)
	}
	s.tick(t, d)
	s.trySpan(end)
	return nil
}

// wake replays the skipped idle rounds into the stations and leaves
// quiescence; the caller then executes round t as a normal full sweep.
func (s *Sim) wake(t int64) {
	if t > s.qFrom {
		for _, sk := range s.skippers {
			sk.SkipIdle(s.qFrom, t)
		}
	}
	s.quiescent = false
}

// tick is the O(1) quiescent round: the station sweep collapses to the
// idle profile's entry for round t. The caller has already consulted
// the adversary (no injections) and the disruption hook.
//
//earmac:hotpath
func (s *Sim) tick(t int64, d Disrupt) {
	tr := s.tracker
	e := s.idleEntry(t)
	switch {
	case d != 0:
		tr.CollisionRounds++
		if d&DisruptJam != 0 {
			tr.JammedRounds++
		}
		if d&DisruptOutage != 0 {
			tr.OutageRounds++
		}
	case e.Light:
		tr.HeardRounds++
		tr.LightRounds++
		tr.ControlBits += int64(e.CtrlBits)
	default:
		tr.SilentRounds++
	}
	tr.ObserveRound(t, 0, e.Energy)
	s.round++
}

// trySpan attempts the closed-form span skip after a successful tick,
// bounded by end (the Run horizon), the idle-profile break, the
// adversary's next possible event, and the disruption horizon. A
// Disrupted hook without DisruptHorizon pins spans (its per-round
// consult may have side effects the engine cannot replay); external
// injections (a topology layer's relay feed) pin spans too — the
// network layer skips spans itself, under its own guarantees.
//
//earmac:hotpath
func (s *Sim) trySpan(end int64) {
	if s.advSkip == nil || s.extInj != nil {
		return
	}
	from := s.round
	limit := end
	if s.disrupt != nil {
		if s.dhor == nil {
			return
		}
		if dh := s.dhor(from); dh >= 0 && dh < limit {
			limit = dh
		}
	}
	if to := s.SpanHorizon(from, limit); to > from+1 {
		s.SkipSpan(to)
	}
}

// Quiescent reports whether the simulator is inside a quiescent
// stretch (fast path only; always false otherwise).
func (s *Sim) Quiescent() bool { return s.quiescent }

// QuiescentConst returns the constant idle round of a quiescent sim
// whose profile is period-1, and whether that holds. The network span
// barrier requires constant profiles so per-round channel totals stay
// aligned across an arbitrary window.
func (s *Sim) QuiescentConst() (IdleRound, bool) {
	if !s.quiescent || len(s.idleCycle) != 1 {
		return IdleRound{}, false
	}
	return s.idleCycle[0], true
}

// SpanHorizon returns the furthest round to <= limit such that rounds
// [from, to) are provably idle by the simulator's own constraints (the
// idle-profile break and the adversary's next possible event); from
// must equal Round(). It does not consult the Disrupted hook — the
// single-channel span gates on Options.DisruptHorizon, and a topology
// layer owns its own disruption horizon.
func (s *Sim) SpanHorizon(from, limit int64) int64 {
	if !s.quiescent || s.advSkip == nil || from != s.round {
		return from
	}
	to := limit
	if s.idleBreakAt >= 0 && s.idleBreakAt < to {
		to = s.idleBreakAt
	}
	if nr := s.advSkip.NextEventRound(from); nr >= 0 && nr < to {
		to = nr
	}
	if to < from {
		to = from
	}
	return to
}

// SkipSpan accrues rounds [Round(), to) in closed form and jumps the
// clock to to. The window must have been established via SpanHorizon
// (plus, for topology layers, their own guarantee that no external
// injection or disruption lands inside it). Station state advances
// lazily — at the next wake-up or Settle.
//
//earmac:hotpath
func (s *Sim) SkipSpan(to int64) {
	from := s.round
	if to <= from {
		return
	}
	m := to - from
	tr := s.tracker
	a, b := from-s.idleAnchor, to-s.idleAnchor
	lights := s.prefRange(s.prefLight, a, b)
	tr.HeardRounds += lights
	tr.LightRounds += lights
	tr.SilentRounds += m - lights
	tr.ControlBits += s.prefRange(s.prefCtrl, a, b)
	esum := s.prefRange(s.prefEnergy, a, b)
	maxE := s.cycleMaxE
	if p := int64(len(s.idleCycle)); m < p {
		maxE = 0
		for r := from; r < to; r++ {
			if e := s.idleEntry(r).Energy; e > maxE {
				maxE = e
			}
		}
	}
	tr.ObserveQuietSpan(from, m, esum, maxE)
	if s.advSkip != nil {
		s.advSkip.SkipIdle(from, to)
	}
	s.round = to
}

// Settle replays any pending skipped rounds into the stations without
// leaving quiescence, so externally visible station state (queue
// snapshots, duty-cycle sleep totals) is exact at Run boundaries. It
// is idempotent and cheap when nothing is pending.
func (s *Sim) Settle() {
	if !s.quiescent || s.round == s.qFrom {
		return
	}
	for _, sk := range s.skippers {
		sk.SkipIdle(s.qFrom, s.round)
	}
	s.qFrom = s.round
}
