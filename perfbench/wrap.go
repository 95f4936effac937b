package main

// Timing wrappers for the traced run. They sit at the layer boundaries
// the simulator exposes — core.Protocol (the algorithms), core.Adversary
// and network.Source (the adversary), io.Writer (the trace encoder's
// sink) — and forward every optional interface the wrapped value has,
// so a wrapped simulator selects exactly the same round loop and
// quiescence engine as an unwrapped one. capsOf and wrap* check that
// at construction.
//
// Timing every call would cost more than the calls themselves (an Act
// is a few tens of ns, a clock read about as much), so calls are timed
// on sampled rounds only: every round whose number is a multiple of
// callSample. Counts are exact; times are scaled by calls ÷ timed
// calls, with the calibrated cost of one clock read taken off each
// timed call.

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"earmac/internal/core"
	"earmac/internal/mac"
	"earmac/internal/network"
)

const (
	// callSample times every call on rounds that are multiples of it. A
	// prime, so it never aligns with an algorithm's round-robin period.
	callSample = 31
	// spanSample marks the rounds (≡ spanSample mod callSample) on which
	// a network channel's step is timed end to end, with no per-call
	// clock reads inflating it.
	spanSample = 15
)

// clockCost is the calibrated cost of one time.Now call.
var clockCost = calibrateClock()

func calibrateClock() time.Duration {
	const reps = 2001
	ds := make([]float64, 0, 15)
	for r := 0; r < 15; r++ {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			_ = time.Now()
		}
		ds = append(ds, float64(time.Since(t0))/reps)
	}
	return time.Duration(quantile(ds, 0.5))
}

// calls accumulates one kind of wrapped call.
type calls struct {
	n, timed int64
	ns       int64 // time in timed calls, clock cost removed
}

func (c *calls) add(d time.Duration) {
	c.timed++
	if d -= clockCost; d > 0 {
		c.ns += int64(d)
	}
}

// total estimates the time spent in all n calls.
func (c *calls) total() float64 {
	if c.timed == 0 {
		return 0
	}
	return float64(c.ns) * float64(c.n) / float64(c.timed)
}

func (c *calls) merge(o calls) { c.n += o.n; c.timed += o.timed; c.ns += o.ns }

// simClock collects one simulator's wrapped calls (one per channel on
// a network, so parallel workers never share one).
type simClock struct {
	act, observe  calls
	other         calls // station Inject and QueueLen
	skip          calls // station SkipIdle (timed on every call: they are rare)
	adv           calls // adversary side
	injections    int64
	steppedRounds int64 // rounds in which station 0 acted

	// Channel step spans on span-sampled rounds (networks only).
	spanOpen   bool // a sampled round's span is open
	spanStart  time.Time
	spanEnd    time.Time
	spanNs     int64 // summed sampled spans
	spanRounds int64 // sampled rounds
	rounds     int64 // rounds the channel's entry feed was consulted
}

func (c *simClock) timedCalls() int64 {
	return c.act.timed + c.observe.timed + c.other.timed + c.skip.timed + c.adv.timed
}

func (c *simClock) stationNs() float64 {
	return c.act.total() + c.observe.total() + c.other.total() + c.skip.total()
}

// closeSpan folds an open sampled span.
func (c *simClock) closeSpan() {
	if c.spanOpen {
		c.spanNs += int64(c.spanEnd.Sub(c.spanStart))
		c.spanRounds++
		c.spanOpen = false
	}
}

// workNs estimates the channel's total step time from its sampled spans.
func (c *simClock) workNs() float64 {
	c.closeSpan()
	if c.spanRounds == 0 {
		return 0
	}
	return float64(c.spanNs) * float64(c.rounds) / float64(c.spanRounds)
}

func (c *simClock) merge(o *simClock) {
	c.act.merge(o.act)
	c.observe.merge(o.observe)
	c.other.merge(o.other)
	c.skip.merge(o.skip)
	c.adv.merge(o.adv)
	c.injections += o.injections
	c.steppedRounds += o.steppedRounds
}

func sampled(round int64) bool { return round%callSample == 0 }

// Optional-interface bits, for checking a wrapper exposes exactly the
// capabilities of the value it wraps.
const (
	capHolder = 1 << iota
	capSkipper
	capFeedbackFree
	capAppender
	capEventSkipper
	capRoundObs
	capQueueObs
	capFeedbackObs
	capSourceSkipper
	capStringWriter
	capByteWriter
	capReaderFrom
)

func capsOf(v any) int {
	c := 0
	set := func(ok bool, bit int) {
		if ok {
			c |= bit
		}
	}
	_, ok := v.(core.PacketHolder)
	set(ok, capHolder)
	_, ok = v.(mac.Skipper)
	set(ok, capSkipper)
	_, ok = v.(mac.FeedbackFreeIdler)
	set(ok, capFeedbackFree)
	_, ok = v.(core.InjectAppender)
	set(ok, capAppender)
	_, ok = v.(core.EventSkipper)
	set(ok, capEventSkipper)
	_, ok = v.(core.RoundObserver)
	set(ok, capRoundObs)
	_, ok = v.(core.QueueObserver)
	set(ok, capQueueObs)
	_, ok = v.(core.FeedbackObserver)
	set(ok, capFeedbackObs)
	_, ok = v.(network.SourceSkipper)
	set(ok, capSourceSkipper)
	_, ok = v.(io.StringWriter)
	set(ok, capStringWriter)
	_, ok = v.(io.ByteWriter)
	set(ok, capByteWriter)
	_, ok = v.(io.ReaderFrom)
	set(ok, capReaderFrom)
	return c
}

func sameCaps(inner, wrapped any) error {
	if a, b := capsOf(inner), capsOf(wrapped); a != b {
		return fmt.Errorf("wrapper of %T exposes optional interfaces %#x, the wrapped value %#x", inner, b, a)
	}
	return nil
}

// station times one core.Protocol.
type station struct {
	inner core.Protocol
	c     *simClock
	first bool  // station 0 counts stepped rounds
	last  bool  // the last station's QueueLen ends a network step
	round int64 // the round of the last Act
}

func (s *station) Inject(p mac.Packet) {
	s.c.other.n++
	if !sampled(p.Injected) {
		s.inner.Inject(p)
		return
	}
	t := time.Now()
	s.inner.Inject(p)
	s.c.other.add(time.Since(t))
}

func (s *station) Act(round int64) core.Action {
	s.round = round
	s.c.act.n++
	if s.first {
		s.c.steppedRounds++
	}
	if !sampled(round) {
		return s.inner.Act(round)
	}
	t := time.Now()
	a := s.inner.Act(round)
	s.c.act.add(time.Since(t))
	return a
}

func (s *station) Observe(round int64, fb mac.Feedback) {
	s.c.observe.n++
	if !sampled(round) {
		s.inner.Observe(round, fb)
		return
	}
	t := time.Now()
	s.inner.Observe(round, fb)
	s.c.observe.add(time.Since(t))
}

// QueueLen is called once per station per stepped round, after the
// round's last Observe. It carries no round number, so it is timed on
// the rounds whose Act was.
func (s *station) QueueLen() int {
	s.c.other.n++
	if !sampled(s.round) {
		l := s.inner.QueueLen()
		if s.last && s.c.spanOpen {
			s.c.spanEnd = time.Now()
		}
		return l
	}
	t := time.Now()
	l := s.inner.QueueLen()
	s.c.other.add(time.Since(t))
	return l
}

type holderPart struct{ h core.PacketHolder }

func (p holderPart) HeldPackets() []mac.Packet { return p.h.HeldPackets() }

type skipperPart struct {
	sk mac.Skipper
	c  *simClock
}

func (p skipperPart) Quiescent() bool { return p.sk.Quiescent() }

func (p skipperPart) SkipIdle(from, to int64) {
	p.c.skip.n++
	t := time.Now()
	p.sk.SkipIdle(from, to)
	p.c.skip.add(time.Since(t))
}

type feedbackFreePart struct{ f mac.FeedbackFreeIdler }

func (p feedbackFreePart) FeedbackFreeIdle() bool { return p.f.FeedbackFreeIdle() }

// wrapStation returns a timed station exposing exactly the optional
// interfaces of p.
func wrapStation(p core.Protocol, c *simClock, first, last bool) (core.Protocol, error) {
	s := &station{inner: p, c: c, first: first, last: last}
	h, _ := p.(core.PacketHolder)
	sk, _ := p.(mac.Skipper)
	ff, _ := p.(mac.FeedbackFreeIdler)
	hp, sp, fp := holderPart{h}, skipperPart{sk, c}, feedbackFreePart{ff}
	var w core.Protocol
	switch capsOf(p) & (capHolder | capSkipper | capFeedbackFree) {
	case 0:
		w = s
	case capHolder:
		w = struct {
			*station
			holderPart
		}{s, hp}
	case capSkipper:
		w = struct {
			*station
			skipperPart
		}{s, sp}
	case capFeedbackFree:
		w = struct {
			*station
			feedbackFreePart
		}{s, fp}
	case capHolder | capSkipper:
		w = struct {
			*station
			holderPart
			skipperPart
		}{s, hp, sp}
	case capHolder | capFeedbackFree:
		w = struct {
			*station
			holderPart
			feedbackFreePart
		}{s, hp, fp}
	case capSkipper | capFeedbackFree:
		w = struct {
			*station
			skipperPart
			feedbackFreePart
		}{s, sp, fp}
	default:
		w = struct {
			*station
			holderPart
			skipperPart
			feedbackFreePart
		}{s, hp, sp, fp}
	}
	return w, sameCaps(p, w)
}

// wrapSystem returns a copy of sys whose stations are timed into c.
// The idle profile and schedule are the original system's: they
// describe the algorithm, which the wrappers do not change.
func wrapSystem(sys *core.System, c *simClock) (*core.System, error) {
	out := *sys
	out.Stations = make([]core.Protocol, len(sys.Stations))
	for i, st := range sys.Stations {
		w, err := wrapStation(st, c, i == 0, i == len(sys.Stations)-1)
		if err != nil {
			return nil, err
		}
		out.Stations[i] = w
	}
	return &out, nil
}

// timedAdversary times one core.Adversary.
type timedAdversary struct {
	inner core.Adversary
	app   core.InjectAppender
	sk    core.EventSkipper
	c     *simClock
}

func (a *timedAdversary) Inject(round int64) []core.Injection {
	a.c.adv.n++
	timed := sampled(round)
	var t time.Time
	if timed {
		t = time.Now()
	}
	out := a.inner.Inject(round)
	if timed {
		a.c.adv.add(time.Since(t))
	}
	a.c.injections += int64(len(out))
	return out
}

func (a *timedAdversary) injectAppend(round int64, buf []core.Injection) []core.Injection {
	a.c.adv.n++
	start := len(buf)
	timed := sampled(round)
	var t time.Time
	if timed {
		t = time.Now()
	}
	buf = a.app.InjectAppend(round, buf)
	if timed {
		a.c.adv.add(time.Since(t))
	}
	a.c.injections += int64(len(buf) - start)
	return buf
}

func (a *timedAdversary) nextEventRound(from int64) int64 {
	a.c.adv.n++
	t := time.Now()
	r := a.sk.NextEventRound(from)
	a.c.adv.add(time.Since(t))
	return r
}

func (a *timedAdversary) skipIdle(from, to int64) {
	a.c.adv.n++
	t := time.Now()
	a.sk.SkipIdle(from, to)
	a.c.adv.add(time.Since(t))
}

type appenderPart struct{ a *timedAdversary }

func (p appenderPart) InjectAppend(round int64, buf []core.Injection) []core.Injection {
	return p.a.injectAppend(round, buf)
}

type eventSkipperPart struct{ a *timedAdversary }

func (p eventSkipperPart) NextEventRound(from int64) int64 { return p.a.nextEventRound(from) }
func (p eventSkipperPart) SkipIdle(from, to int64)         { p.a.skipIdle(from, to) }

// wrapAdversary returns a timed adversary exposing exactly the optional
// interfaces of adv. The adaptive-adversary observers are not used by
// any workload and are refused rather than silently hidden.
func wrapAdversary(adv core.Adversary, c *simClock) (core.Adversary, error) {
	a := &timedAdversary{inner: adv, c: c}
	a.app, _ = adv.(core.InjectAppender)
	a.sk, _ = adv.(core.EventSkipper)
	var w core.Adversary
	switch capsOf(adv) & (capAppender | capEventSkipper) {
	case 0:
		w = a
	case capAppender:
		w = struct {
			*timedAdversary
			appenderPart
		}{a, appenderPart{a}}
	case capEventSkipper:
		w = struct {
			*timedAdversary
			eventSkipperPart
		}{a, eventSkipperPart{a}}
	default:
		w = struct {
			*timedAdversary
			appenderPart
			eventSkipperPart
		}{a, appenderPart{a}, eventSkipperPart{a}}
	}
	return w, sameCaps(adv, w)
}

// source times a network.Source, one simClock per channel: the network
// calls AppendEntries concurrently for distinct channels only.
type source struct {
	inner network.Source
	sk    network.SourceSkipper
	c     []*simClock
}

func (s *source) AppendEntries(round int64, ch int, buf []core.Injection) []core.Injection {
	c := s.c[ch]
	c.rounds++
	c.closeSpan()
	var t time.Time
	spanned := round%callSample == spanSample
	timed := sampled(round)
	if spanned || timed {
		t = time.Now()
	}
	c.adv.n++
	start := len(buf)
	buf = s.inner.AppendEntries(round, ch, buf)
	c.injections += int64(len(buf) - start)
	if timed {
		c.adv.add(time.Since(t))
	}
	if spanned {
		// A quiescent tick calls no station, so the span ends here
		// unless the last station's QueueLen extends it.
		c.spanOpen, c.spanStart, c.spanEnd = true, t, time.Now()
	}
	return buf
}

func (s *source) nextEntryRound(from int64, ch int) int64 {
	c := s.c[ch]
	c.adv.n++
	t := time.Now()
	r := s.sk.NextEntryRound(from, ch)
	c.adv.add(time.Since(t))
	return r
}

func (s *source) skipEntries(from, to int64, ch int) {
	c := s.c[ch]
	c.adv.n++
	t := time.Now()
	s.sk.SkipEntries(from, to, ch)
	c.adv.add(time.Since(t))
}

type sourceSkipperPart struct{ s *source }

func (p sourceSkipperPart) NextEntryRound(from int64, ch int) int64 {
	return p.s.nextEntryRound(from, ch)
}
func (p sourceSkipperPart) SkipEntries(from, to int64, ch int) { p.s.skipEntries(from, to, ch) }

func wrapSource(src network.Source, clocks []*simClock) (network.Source, error) {
	s := &source{inner: src, c: clocks}
	var w network.Source = s
	if sk, ok := src.(network.SourceSkipper); ok {
		s.sk = sk
		w = struct {
			*source
			sourceSkipperPart
		}{s, sourceSkipperPart{s}}
	}
	return w, sameCaps(src, w)
}

// sink times the writes a trace encoder makes into a bytes.Buffer,
// forwarding the buffer's optional writer interfaces.
type sink struct {
	buf   *bytes.Buffer
	bytes int64
	ns    int64
}

func (s *sink) Write(p []byte) (int, error) {
	t := time.Now()
	n, err := s.buf.Write(p)
	s.ns += int64(time.Since(t))
	s.bytes += int64(n)
	return n, err
}

func (s *sink) WriteString(str string) (int, error) {
	t := time.Now()
	n, err := s.buf.WriteString(str)
	s.ns += int64(time.Since(t))
	s.bytes += int64(n)
	return n, err
}

func (s *sink) WriteByte(b byte) error {
	t := time.Now()
	err := s.buf.WriteByte(b)
	s.ns += int64(time.Since(t))
	if err == nil {
		s.bytes++
	}
	return err
}

func (s *sink) ReadFrom(r io.Reader) (int64, error) {
	t := time.Now()
	n, err := s.buf.ReadFrom(r)
	s.ns += int64(time.Since(t))
	s.bytes += n
	return n, err
}
