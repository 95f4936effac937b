// Package report defines the measurement report shared by the public
// façade, the Suite runner, and the Table 1 experiment harness — one JSON
// schema for every tool that emits results.
package report

import (
	"encoding/json"
	"fmt"
	"math"

	"earmac/internal/core"
	"earmac/internal/metrics"
)

// CanonicalJSON fixes the one byte representation the service caches
// and serves for a report-shaped value: compact json.Marshal plus a
// trailing newline. The result cache stores these exact bytes, which is
// what makes the byte-identical guarantee (cache hit == first run)
// checkable with cmp rather than with semantic comparison.
func CanonicalJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		// Unreachable for Report/SuiteReport: they contain only
		// marshalable field types.
		panic("report: canonical encoding: " + err.Error())
	}
	return append(raw, '\n')
}

// Channel is one channel's slice of a network report (internal/network).
// Injected counts everything entering the channel's simulator — entries
// plus relay arrivals — Delivered counts hop deliveries on the channel,
// Relayed the deliveries forwarded onward to a further channel, and the
// latency figure is per-hop; the end-to-end view lives in the enclosing
// Report.
type Channel struct {
	Channel         int     `json:"channel"`
	Stations        int     `json:"stations"`
	Injected        int64   `json:"injected"`
	Delivered       int64   `json:"delivered"`
	Relayed         int64   `json:"relayed"`
	MaxQueue        int64   `json:"max_queue"`
	MeanEnergy      float64 `json:"mean_energy"`
	MeanLatency     float64 `json:"mean_latency"`
	HeardRounds     int64   `json:"heard_rounds"`
	SilentRounds    int64   `json:"silent_rounds"`
	CollisionRounds int64   `json:"collision_rounds"`
	// Disruption figures (ISSUE 8); omitted when zero so undisrupted
	// reports keep their committed byte representation.
	JammedRounds int64 `json:"jammed_rounds,omitempty"`
	OutageRounds int64 `json:"outage_rounds,omitempty"`
	Dropped      int64 `json:"dropped,omitempty"`
}

// Report holds the measurements of one simulation. For a network of
// channels (Topology set) the top-level Injected/Delivered/latency
// figures are end-to-end, queue and energy figures are network totals,
// the channel-utilization counters are channel sums, and PerChannel
// breaks the run down per contention domain.
type Report struct {
	Algorithm   string `json:"algorithm"`
	N           int    `json:"n"`
	Topology    string `json:"topology,omitempty"`
	Channels    int    `json:"channels,omitempty"`
	EnergyCap   int    `json:"energy_cap"`
	PlainPacket bool   `json:"plain_packet"`
	Direct      bool   `json:"direct"`
	Oblivious   bool   `json:"oblivious"`

	Rounds    int64 `json:"rounds"`
	Injected  int64 `json:"injected"`
	Delivered int64 `json:"delivered"`
	Pending   int64 `json:"pending"`

	MaxQueue    int64   `json:"max_queue"`
	FinalQueue  int64   `json:"final_queue"`
	QueueSlope  float64 `json:"queue_slope"`
	GrowthRatio float64 `json:"growth_ratio"`
	Stable      bool    `json:"stable"`
	// QueueImbalance is the largest per-station queue peak relative to
	// the mean peak (1 = balanced; large = one station absorbed the load).
	QueueImbalance float64 `json:"queue_imbalance"`

	MaxLatency  int64   `json:"max_latency"`
	MeanLatency float64 `json:"mean_latency"`
	P50Latency  int64   `json:"p50_latency"` // histogram upper bound
	P99Latency  int64   `json:"p99_latency"` // histogram upper bound

	MeanEnergy float64 `json:"mean_energy"`
	MaxEnergy  int64   `json:"max_energy"`

	HeardRounds     int64 `json:"heard_rounds"`
	SilentRounds    int64 `json:"silent_rounds"`
	CollisionRounds int64 `json:"collision_rounds"`
	LightRounds     int64 `json:"light_rounds"`
	ControlBits     int64 `json:"control_bits"`

	// Disruption and duty-cycling figures (ISSUE 8): channel-rounds
	// jammed / in outage, packets dead mid-route, and cumulative
	// duty-suppressed station-rounds. Omitted when zero, so reports of
	// undisrupted runs keep their committed byte representation.
	JammedRounds int64 `json:"jammed_rounds,omitempty"`
	OutageRounds int64 `json:"outage_rounds,omitempty"`
	Dropped      int64 `json:"dropped,omitempty"`
	SleepRounds  int64 `json:"sleep_rounds,omitempty"`

	// SplitRho/SplitBeta surface the *effective* per-channel entry
	// budget on network runs (network.SplitType: ρ/C with the burst
	// floored at 1) as exact fractions, so sweep rows aren't mislabeled
	// with the nominal budget when β < C.
	SplitRho  string `json:"split_rho,omitempty"`
	SplitBeta string `json:"split_beta,omitempty"`

	PerChannel []Channel `json:"per_channel,omitempty"`

	// Violations holds the first metrics.MaxViolations model violations;
	// ViolationsTotal counts them all.
	Violations      []string `json:"violations,omitempty"`
	ViolationsTotal int64    `json:"violations_total,omitempty"`
}

// FromTracker assembles a Report from a (possibly mid-run) tracker. An
// infinite growth ratio (traffic only in the late window) is clamped to
// MaxFloat64 so reports stay JSON-encodable.
func FromTracker(info core.AlgorithmInfo, n int, tr *metrics.Tracker) Report {
	growth := tr.GrowthRatio()
	if math.IsInf(growth, 1) {
		growth = math.MaxFloat64
	}
	return Report{
		Algorithm:   info.Name,
		N:           n,
		EnergyCap:   info.EnergyCap,
		PlainPacket: info.PlainPacket,
		Direct:      info.Direct,
		Oblivious:   info.Oblivious,

		Rounds:    tr.Rounds,
		Injected:  tr.Injected,
		Delivered: tr.Delivered,
		Pending:   tr.Pending(),

		MaxQueue:       tr.MaxQueue,
		FinalQueue:     tr.FinalQueue,
		QueueSlope:     tr.QueueSlope(),
		GrowthRatio:    growth,
		Stable:         tr.LooksStable(),
		QueueImbalance: tr.QueueImbalance(),

		MaxLatency:  tr.MaxLatency,
		MeanLatency: tr.MeanLatency(),
		P50Latency:  tr.LatencyPercentile(0.5),
		P99Latency:  tr.LatencyPercentile(0.99),

		MeanEnergy: tr.MeanEnergy(),
		MaxEnergy:  tr.MaxEnergy,

		HeardRounds:     tr.HeardRounds,
		SilentRounds:    tr.SilentRounds,
		CollisionRounds: tr.CollisionRounds,
		LightRounds:     tr.LightRounds,
		ControlBits:     tr.ControlBits,

		JammedRounds: tr.JammedRounds,
		OutageRounds: tr.OutageRounds,
		Dropped:      tr.Dropped,

		Violations:      tr.Violations,
		ViolationsTotal: tr.ViolationsTotal,
	}
}

// Summary renders a human-readable digest of the report.
func (r Report) Summary() string {
	caps := ""
	if r.PlainPacket {
		caps += " plain-packet"
	}
	if r.Direct {
		caps += " direct"
	}
	if r.Oblivious {
		caps += " oblivious"
	}
	s := fmt.Sprintf("%s (n=%d, cap %d,%s)\n", r.Algorithm, r.N, r.EnergyCap, caps)
	if r.Topology != "" {
		s += fmt.Sprintf("  network: %s topology, %d channels × %d stations (end-to-end figures below)\n",
			r.Topology, r.Channels, r.N)
		for _, c := range r.PerChannel {
			s += fmt.Sprintf("    channel %d: injected %d, delivered %d, relayed %d, max queue %d, mean energy %.2f\n",
				c.Channel, c.Injected, c.Delivered, c.Relayed, c.MaxQueue, c.MeanEnergy)
		}
	}
	s += fmt.Sprintf("  rounds %d: injected %d, delivered %d, pending %d\n",
		r.Rounds, r.Injected, r.Delivered, r.Pending)
	s += fmt.Sprintf("  queue: max %d, final %d, slope %.5f pkt/round → %s\n",
		r.MaxQueue, r.FinalQueue, r.QueueSlope, stability(r.Stable))
	s += fmt.Sprintf("  latency: max %d, mean %.1f, p50 ≤ %d, p99 ≤ %d\n",
		r.MaxLatency, r.MeanLatency, r.P50Latency, r.P99Latency)
	s += fmt.Sprintf("  energy: mean %.2f on-stations/round (cap %d, peak %d)\n",
		r.MeanEnergy, r.EnergyCap, r.MaxEnergy)
	s += fmt.Sprintf("  channel: %d heard (%d light), %d silent, %d collisions, %d control bits\n",
		r.HeardRounds, r.LightRounds, r.SilentRounds, r.CollisionRounds, r.ControlBits)
	if r.JammedRounds+r.OutageRounds+r.Dropped+r.SleepRounds > 0 {
		s += fmt.Sprintf("  disruption: %d jammed, %d outage channel-rounds, %d packets dropped, %d sleep station-rounds\n",
			r.JammedRounds, r.OutageRounds, r.Dropped, r.SleepRounds)
	}
	if r.SplitRho != "" {
		s += fmt.Sprintf("  effective per-channel entry budget: (ρ=%s, β=%s)\n", r.SplitRho, r.SplitBeta)
	}
	if len(r.Violations) > 0 {
		s += fmt.Sprintf("  VIOLATIONS: %d (first: %s)\n", r.ViolationsTotal, r.Violations[0])
	}
	return s
}

func stability(ok bool) string {
	if ok {
		return "stable"
	}
	return "UNSTABLE"
}
