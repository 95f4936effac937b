package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		lat  int64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {7, 2}, {8, 3}, {1 << 40, 40},
	}
	for _, c := range cases {
		if got := bucketOf(c.lat); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.lat, got, c.want)
		}
	}
}

func TestDeliveryStats(t *testing.T) {
	tr := NewTracker()
	for _, lat := range []int64{1, 2, 3, 4, 100} {
		tr.ObserveDelivery(lat)
	}
	if tr.Delivered != 5 {
		t.Errorf("Delivered = %d", tr.Delivered)
	}
	if tr.MaxLatency != 100 {
		t.Errorf("MaxLatency = %d", tr.MaxLatency)
	}
	if got := tr.MeanLatency(); got != 22 {
		t.Errorf("MeanLatency = %v, want 22", got)
	}
	// p50 over {1,2,3,4,100}: 3rd smallest = 3, bucket [2,4) → upper 3.
	if got := tr.LatencyPercentile(0.5); got != 3 {
		t.Errorf("p50 = %d, want 3", got)
	}
	if got := tr.LatencyPercentile(1.0); got != 127 {
		t.Errorf("p100 = %d, want 127 (bucket top of 100)", got)
	}
}

// TestLatencyPercentileClamped is the regression test for out-of-range
// quantiles: p > 1, p < 0, and NaN used to produce a target beyond
// Delivered and silently fall through to MaxLatency; they now clamp to
// the [0,1] endpoints.
func TestLatencyPercentileClamped(t *testing.T) {
	tr := NewTracker()
	for _, lat := range []int64{1, 2, 3, 4, 100} {
		tr.ObserveDelivery(lat)
	}
	p0 := tr.LatencyPercentile(0)   // smallest bucket top: latency 1 → bucket [1,2) → 1
	p1 := tr.LatencyPercentile(1.0) // bucket top of 100 → 127
	if p0 != 1 {
		t.Errorf("p=0: %d, want 1", p0)
	}
	if p1 != 127 {
		t.Errorf("p=1: %d, want 127", p1)
	}
	for _, p := range []float64{1.0001, 2, 100, math.Inf(1)} {
		if got := tr.LatencyPercentile(p); got != p1 {
			t.Errorf("p=%v: %d, want clamp to p=1 result %d", p, got, p1)
		}
	}
	for _, p := range []float64{-0.0001, -3, math.Inf(-1), math.NaN()} {
		if got := tr.LatencyPercentile(p); got != p0 {
			t.Errorf("p=%v: %d, want clamp to p=0 result %d", p, got, p0)
		}
	}
}

// TestLatencyPercentileZeroLatency: instant deliveries land in bucket 0,
// whose upper bound is 1.
func TestLatencyPercentileZeroLatency(t *testing.T) {
	tr := NewTracker()
	tr.ObserveDelivery(0)
	tr.ObserveDelivery(0)
	for _, p := range []float64{0, 0.5, 1} {
		if got := tr.LatencyPercentile(p); got != 1 {
			t.Errorf("p=%v over zero-latency deliveries: %d, want 1", p, got)
		}
	}
	if tr.MaxLatency != 0 {
		t.Errorf("MaxLatency = %d", tr.MaxLatency)
	}
}

// TestLatencyPercentileBucketBoundaries pins the quantile at exact
// power-of-two boundaries: a latency of exactly 2^b sits at the bottom
// of bucket b, so its reported upper bound is 2^(b+1)-1.
func TestLatencyPercentileBucketBoundaries(t *testing.T) {
	for _, lat := range []int64{1, 2, 4, 8, 1024} {
		tr := NewTracker()
		tr.ObserveDelivery(lat)
		want := int64(1)<<(bucketOf(lat)+1) - 1
		if got := tr.LatencyPercentile(0.5); got != want {
			t.Errorf("single delivery at %d: p50 = %d, want %d", lat, got, want)
		}
	}
}

func TestLatencyPercentileTopBucket(t *testing.T) {
	tr := NewTracker()
	tr.ObserveDelivery(math.MaxInt64) // bucket 63: upper bound saturates
	if got := tr.LatencyPercentile(1); got != math.MaxInt64 {
		t.Errorf("top-bucket percentile = %d, want MaxInt64", got)
	}
}

func TestBucketOfNegativeLatency(t *testing.T) {
	// Defensive: latency is never negative in practice, but bucketOf must
	// not index out of range if it ever is.
	if got := bucketOf(-5); got != 0 {
		t.Errorf("bucketOf(-5) = %d, want 0", got)
	}
}

func TestMaxEnergyWideRange(t *testing.T) {
	// MaxEnergy is int64: it sits among int64 accumulators and serializes
	// with the same JSON width (the compile-time assignment below pins
	// the field's type). Per-round energy is one round's on-station
	// count, so the int parameter bounds single observations, but the
	// stored peak must carry the full value without truncation on every
	// platform.
	tr := NewTracker()
	tr.ObserveRound(0, 0, math.MaxInt32)
	var peak int64 = tr.MaxEnergy
	if peak != math.MaxInt32 {
		t.Errorf("MaxEnergy = %d, want %d", peak, int64(math.MaxInt32))
	}
}

func TestLatencyPercentileEmpty(t *testing.T) {
	tr := NewTracker()
	if tr.LatencyPercentile(0.99) != 0 || tr.MeanLatency() != 0 {
		t.Error("empty tracker percentile/mean should be 0")
	}
}

func TestRoundObservation(t *testing.T) {
	tr := NewTracker()
	tr.SampleEvery = 1
	queues := []int64{0, 5, 3, 9, 2}
	for i, q := range queues {
		tr.ObserveRound(int64(i), q, i%3)
	}
	if tr.Rounds != 5 {
		t.Errorf("Rounds = %d", tr.Rounds)
	}
	if tr.MaxQueue != 9 || tr.MaxQueueRound != 3 {
		t.Errorf("MaxQueue = %d @%d", tr.MaxQueue, tr.MaxQueueRound)
	}
	if tr.FinalQueue != 2 {
		t.Errorf("FinalQueue = %d", tr.FinalQueue)
	}
	if tr.MaxEnergy != 2 {
		t.Errorf("MaxEnergy = %d", tr.MaxEnergy)
	}
	if got := tr.MeanEnergy(); got != (0+1+2+0+1)/5.0 {
		t.Errorf("MeanEnergy = %v", got)
	}
	if len(tr.Samples()) != 5 {
		t.Errorf("samples = %d", len(tr.Samples()))
	}
}

func TestQueueSlopeGrowth(t *testing.T) {
	tr := NewTracker()
	tr.SampleEvery = 1
	// Queue grows 2 packets/round.
	for r := int64(0); r < 1000; r++ {
		tr.ObserveRound(r, 2*r, 1)
	}
	if got := tr.QueueSlope(); math.Abs(got-2) > 0.01 {
		t.Errorf("QueueSlope = %v, want ≈2", got)
	}
	if tr.LooksStable() {
		t.Error("growing queue reported stable")
	}
}

func TestQueueSlopeStable(t *testing.T) {
	tr := NewTracker()
	tr.SampleEvery = 1
	for r := int64(0); r < 1000; r++ {
		tr.ObserveRound(r, 40+(r%7), 1)
	}
	if got := tr.QueueSlope(); math.Abs(got) > 0.01 {
		t.Errorf("QueueSlope = %v, want ≈0", got)
	}
	if !tr.LooksStable() {
		t.Error("bounded queue reported unstable")
	}
	if g := tr.GrowthRatio(); g < 0.9 || g > 1.1 {
		t.Errorf("GrowthRatio = %v, want ≈1", g)
	}
}

func TestGrowthRatioEmptyEarly(t *testing.T) {
	tr := NewTracker()
	tr.SampleEvery = 1
	for r := int64(0); r < 100; r++ {
		q := int64(0)
		if r >= 80 {
			q = 50
		}
		tr.ObserveRound(r, q, 1)
	}
	if !math.IsInf(tr.GrowthRatio(), 1) {
		t.Errorf("GrowthRatio = %v, want +Inf", tr.GrowthRatio())
	}
}

func TestGrowthRatioNotEnoughData(t *testing.T) {
	tr := NewTracker()
	tr.SampleEvery = 1
	for r := int64(0); r < 4; r++ {
		tr.ObserveRound(r, r, 1)
	}
	if tr.GrowthRatio() != 1 {
		t.Errorf("GrowthRatio with little data = %v, want 1", tr.GrowthRatio())
	}
}

func TestPerStationTracking(t *testing.T) {
	tr := NewTracker()
	// Disabled by default: no-ops.
	tr.ObserveStationQueues([]int{5, 5})
	if tr.StationMaxQueues() != nil || tr.QueueImbalance() != 0 {
		t.Error("per-station tracking should be off by default")
	}
	tr.TrackStations(3)
	tr.ObserveStationQueues([]int{1, 7, 2})
	tr.ObserveStationQueues([]int{4, 3, 2})
	peaks := tr.StationMaxQueues()
	want := []int64{4, 7, 2}
	for i := range want {
		if peaks[i] != want[i] {
			t.Errorf("peaks = %v, want %v", peaks, want)
		}
	}
	// Imbalance = 7 / mean(4,7,2) = 7/4.333.
	if got := tr.QueueImbalance(); got < 1.6 || got > 1.63 {
		t.Errorf("QueueImbalance = %v", got)
	}
}

func TestQueueImbalanceEmpty(t *testing.T) {
	tr := NewTracker()
	tr.TrackStations(2)
	if tr.QueueImbalance() != 0 {
		t.Error("imbalance of untouched tracker should be 0")
	}
}

func TestViolationsCapped(t *testing.T) {
	tr := NewTracker()
	for i := 0; i < 200; i++ {
		tr.Violate("violation %d", i)
	}
	if len(tr.Violations) != MaxViolations {
		t.Errorf("violations = %d, want capped at %d", len(tr.Violations), MaxViolations)
	}
	if tr.ViolationsTotal != 200 {
		t.Errorf("ViolationsTotal = %d, want 200", tr.ViolationsTotal)
	}
}

func TestSummaryIncludesViolations(t *testing.T) {
	tr := NewTracker()
	tr.ObserveRound(0, 1, 2)
	tr.ObserveDelivery(10)
	tr.Violate("cap exceeded")
	s := tr.Summary()
	for _, want := range []string{"rounds=1", "delivered=1", "VIOLATIONS", "cap exceeded"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestPendingAndInjections(t *testing.T) {
	tr := NewTracker()
	tr.ObserveInjections(7)
	tr.ObserveDelivery(1)
	tr.ObserveDelivery(2)
	if tr.Pending() != 5 {
		t.Errorf("Pending = %d, want 5", tr.Pending())
	}
}

func TestLatencyBuckets(t *testing.T) {
	tr := NewTracker()
	for _, lat := range []int64{1, 1, 5, 6, 7} {
		tr.ObserveDelivery(lat)
	}
	b := tr.LatencyBuckets()
	if len(b) != 2 {
		t.Fatalf("buckets = %v", b)
	}
	if b[0].UpTo != 1 || b[0].Count != 2 {
		t.Errorf("bucket 0 = %+v", b[0])
	}
	if b[1].UpTo != 7 || b[1].Count != 3 {
		t.Errorf("bucket 1 = %+v", b[1])
	}
}
