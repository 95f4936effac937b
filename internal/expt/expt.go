// Package expt defines the reproduction experiments: one runnable
// specification per row of the paper's Table 1 (its entire evaluation),
// plus the algorithm/pattern registries shared by the command-line tools,
// the public façade, and the benchmark suite.
//
// A Spec pins a system, an adversary, and a horizon; Run executes it
// strictly (with conservation checking) and produces an Outcome holding
// the measured stability, queue, latency, and energy figures next to the
// paper's claimed bound, plus a verdict of whether the measurement
// reproduces the claim.
package expt

import (
	"fmt"
	"math"

	"earmac/internal/adversary"
	"earmac/internal/core"
	"earmac/internal/metrics"
	"earmac/internal/ratio"
	"earmac/internal/report"
)

// Kind states what a spec is checking.
type Kind int

const (
	// KindStable: the algorithm must keep queues bounded.
	KindStable Kind = iota
	// KindQueueBound: bounded queues that also stay under Bound.
	KindQueueBound
	// KindLatency: bounded queues with max latency under Bound×Slack.
	KindLatency
	// KindUnstable: the adversary must force unbounded queue growth.
	KindUnstable
)

func (k Kind) String() string {
	switch k {
	case KindStable:
		return "stable"
	case KindQueueBound:
		return "queue-bound"
	case KindLatency:
		return "latency"
	case KindUnstable:
		return "unstable"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Spec is one experiment.
type Spec struct {
	ID    string // Table 1 row, e.g. "T1.5"
	Label string // algorithm and setting
	N     int
	K     int // energy cap parameter (0 when fixed by the algorithm)

	Rho  ratio.Rat
	Beta int64

	Rounds int64

	Kind  Kind
	Bound float64 // the paper's bound for this configuration (0 if n/a)
	Slack float64 // multiplicative tolerance on Bound (1 = exact)

	PaperClaim string // the formula as stated in Table 1

	Build func() (*core.System, error)
	// Adv builds the adversary; nil means a full-rate Uniform pattern of
	// type (Rho, Beta).
	Adv  func(sys *core.System) core.Adversary
	Seed int64
}

// Outcome is the measured result of a Spec.
type Outcome struct {
	Spec

	Stable      bool
	MaxQueue    int64
	FinalQueue  int64
	Slope       float64
	Growth      float64
	MaxLatency  int64
	MeanLatency float64
	P99Latency  int64
	MeanEnergy  float64
	MaxEnergy   int64
	Injected    int64
	Delivered   int64
	Violations  int

	// Report is the full measurement record in the shared schema
	// (internal/report) that the façade and the Suite runner also emit.
	Report report.Report

	// Measured is the headline number compared against Bound (max queue
	// for queue bounds, max latency for latency bounds, the queue growth
	// slope for instability rows).
	Measured float64
	// OK reports whether the measurement reproduces the paper's claim.
	OK bool
}

// Run executes the spec strictly with conservation checking.
func Run(s Spec) (Outcome, error) {
	sys, err := s.Build()
	if err != nil {
		return Outcome{}, fmt.Errorf("%s: %w", s.ID, err)
	}
	var adv core.Adversary
	if s.Adv != nil {
		adv = s.Adv(sys)
	} else {
		adv = adversary.New(adversary.Type{Rho: s.Rho, Beta: ratio.FromInt(s.Beta)},
			adversary.Uniform(sys.N(), s.Seed+1))
	}
	tr := metrics.NewTracker()
	tr.SampleEvery = maxI64(s.Rounds/512, 1)
	sim := core.NewSim(sys, adv, core.Options{Strict: true, CheckEvery: 10007, Tracker: tr})
	if err := sim.Run(s.Rounds); err != nil {
		return Outcome{}, fmt.Errorf("%s: %w", s.ID, err)
	}

	o := Outcome{
		Spec:        s,
		Report:      report.FromTracker(sys.Info, sys.N(), tr),
		Stable:      tr.LooksStable(),
		MaxQueue:    tr.MaxQueue,
		FinalQueue:  tr.FinalQueue,
		Slope:       tr.QueueSlope(),
		Growth:      tr.GrowthRatio(),
		MaxLatency:  tr.MaxLatency,
		MeanLatency: tr.MeanLatency(),
		P99Latency:  tr.LatencyPercentile(0.99),
		MeanEnergy:  tr.MeanEnergy(),
		MaxEnergy:   tr.MaxEnergy,
		Injected:    tr.Injected,
		Delivered:   tr.Delivered,
		Violations:  int(tr.ViolationsTotal),
	}
	slack := s.Slack
	if slack == 0 {
		slack = 1
	}
	switch s.Kind {
	case KindStable:
		o.Measured = float64(o.MaxQueue)
		o.OK = o.Stable && o.Violations == 0
	case KindQueueBound:
		o.Measured = float64(o.MaxQueue)
		o.OK = o.Stable && o.Violations == 0 && o.Measured <= s.Bound*slack
	case KindLatency:
		o.Measured = float64(o.MaxLatency)
		o.OK = o.Stable && o.Violations == 0 && o.Measured <= s.Bound*slack
	case KindUnstable:
		o.Measured = o.Slope
		o.OK = !o.Stable && o.Slope > 0 && o.Violations == 0
	}
	return o, nil
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// lgCeil is ⌈log₂(x+1)⌉ as used in the paper's bounds.
func lgCeil(x float64) float64 {
	return math.Ceil(math.Log2(x + 1))
}

// Paper bounds per Table 1, as functions of the configuration.

// OrchestraQueueBound is Theorem 1: 2n³ + β.
func OrchestraQueueBound(n int, beta int64) float64 {
	return 2*math.Pow(float64(n), 3) + float64(beta)
}

// CountHopLatencyBound is Theorem 3: 2(n²+β)/(1−ρ).
func CountHopLatencyBound(n int, beta int64, rho ratio.Rat) float64 {
	return 2 * (float64(n*n) + float64(beta)) / (1 - rho.Float64())
}

// AdjustWindowLatencyBound is Theorem 4: (18n³·lg²n + 2β)/(1−ρ).
func AdjustWindowLatencyBound(n int, beta int64, rho ratio.Rat) float64 {
	lgn := lgCeil(float64(n))
	return (18*math.Pow(float64(n), 3)*lgn*lgn + 2*float64(beta)) / (1 - rho.Float64())
}

// KCycleLatencyBound is Theorem 5: (32+β)·n.
func KCycleLatencyBound(n int, beta int64) float64 {
	return (32 + float64(beta)) * float64(n)
}

// KCliqueLatencyBound is Theorem 7: 8(n²/k)(1+β/(2k)).
func KCliqueLatencyBound(n, k int, beta int64) float64 {
	return 8 * float64(n*n) / float64(k) * (1 + float64(beta)/float64(2*k))
}

// KSubsetsQueueBound is Theorem 8: 2·C(n,k)·(n²+β).
func KSubsetsQueueBound(n, k int, beta int64) float64 {
	c := 1.0
	for i := 0; i < k; i++ {
		c = c * float64(n-i) / float64(i+1)
	}
	return 2 * c * (float64(n*n) + float64(beta))
}
