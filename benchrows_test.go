package earmac

// The deterministic bench rows: 31 fixed-seed runs on the fast path —
// the Table 1 quick set, a sparse quiescence row, the prior-work
// broadcast substrates, two steady-state routing workloads, the raw
// packet queue, and relayed networks of 4 to 1024 channels. Each row
// pins its deterministic outputs (queue_max and mean energy) exactly and
// caps its allocations per round. A ".ser" row is its base row at one
// network worker and a ".noskip" row its base row with the quiescence
// engine off; both must match the base row's metrics.Counters bit for
// bit (DESIGN.md §13, §16). Counters, not just the pins: T1.sparse
// reads queue_max 1 and energy 3 at any seed.
//
// TestBenchRows checks the pins; BenchmarkBenchRows times the same rows
// in Mrounds/s (wall-clock speed is gated end to end by perfbench, see
// scripts/bench-ab.sh):
//
//	go test -run '^$' -bench 'BenchRows/(T1.sparse|NET.frontier16)' .

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"earmac/internal/adversary"
	"earmac/internal/algorithms/ksubsets"
	"earmac/internal/algorithms/orchestra"
	"earmac/internal/algorithms/randmac"
	"earmac/internal/core"
	"earmac/internal/expt"
	"earmac/internal/mac"
	"earmac/internal/mac/duty"
	"earmac/internal/metrics"
	"earmac/internal/network"
	"earmac/internal/pktq"
	"earmac/internal/ratio"
)

// rowPin is a row's pinned outputs. allocs is the allocs/round it
// measured when pinned; the ceiling adds allocsSlack, which absorbs
// one-off pool growth and GC bookkeeping but not a per-round allocation.
type rowPin struct {
	queueMax int64
	energy   float64
	allocs   float64
}

const allocsSlack = 0.01

var rowPins = map[string]rowPin{
	"T1.1":                  {160, 2.664633333333333, 0.0023916666666666665},
	"T1.2a":                 {2510, 1.8069875, 0.0033125},
	"T1.2b":                 {67060, 1.22259, 0.006843333333333333},
	"T1.2c":                 {2501, 1.999875, 0.0011875},
	"T1.3":                  {71, 1.9143, 0.0025},
	"T1.4":                  {16598, 0.9983011881510416, 0.004826863606770833},
	"T1.5":                  {19, 2.750025, 0.0013375},
	"T1.6":                  {25039, 2.75006, 0.00341},
	"T1.7":                  {5, 4, 0.00116},
	"T1.8":                  {15, 3, 0.00174},
	"T1.9":                  {6012, 3, 0.00135},
	"T1.sparse":             {1, 3, 8.65e-05},
	"T1.sparse.noskip":      {1, 3, 8.45e-05},
	"SUB.mbtf":              {49, 8, 0.0006066666666666667},
	"SUB.rrw":               {14, 8, 0.0004133333333333333},
	"SUB.ofrrw":             {26, 8, 0.00088},
	"SUB.ksubsets":          {12, 3, 0.0016533333333333333},
	"SUB.aloha":             {3, 4, 0.0002},
	"SUB.pktq":              {64, 0, 3.5e-05},
	"NET.line4":             {82, 8.636176470588236, 0.00063},
	"NET.line4.ser":         {82, 8.636176470588236, 0.00067},
	"NET.star64":            {127, 128.6565, 0.0351},
	"NET.star64.ser":        {127, 128.6565, 0.0353},
	"NET.grid64":            {222, 129.901, 0.04525},
	"NET.rand64":            {172, 129.29136363636363, 0.0427},
	"NET.clique1024":        {1024, 2048.798823529412, 0},
	"NET.clique1024.ser":    {1024, 2048.798823529412, 0},
	"NET.jam16":             {25, 10.304884615384616, 0.0013},
	"NET.jam16.ser":         {25, 10.304884615384616, 0.0013},
	"NET.frontier16":        {16, 0.22675, 0.00176},
	"NET.frontier16.noskip": {16, 0.22675, 0.00176},
}

// rowRun is one execution of a row: its deterministic outputs and the
// allocations and wall-clock of the measured window alone (setup and
// network warmup excluded).
type rowRun struct {
	rounds   int64
	counters metrics.Counters // zero for SUB.pktq
	queueMax int64
	energy   float64
	mallocs  uint64
	elapsed  time.Duration
}

type benchRow struct {
	id  string
	run func(tb testing.TB) rowRun
}

// measured runs f between two heap-statistics reads and returns the
// mallocs and wall-clock it took.
func measured(tb testing.TB, f func() error) (uint64, time.Duration) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := f()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		tb.Fatal(err)
	}
	return after.Mallocs - before.Mallocs, elapsed
}

// simRow is a single-channel fast-path row; noskip turns the quiescence
// engine off for a ".noskip" twin.
func simRow(id string, rounds int64, noskip bool, build func() (*core.System, core.Adversary, error)) benchRow {
	return benchRow{id, func(tb testing.TB) rowRun {
		sys, adv, err := build()
		if err != nil {
			tb.Fatal(err)
		}
		tr := metrics.NewTracker()
		tr.SampleEvery = 0
		sim := core.NewSim(sys, adv, core.Options{Tracker: tr, NoSkip: noskip})
		out := rowRun{rounds: rounds}
		out.mallocs, out.elapsed = measured(tb, func() error { return sim.Run(rounds) })
		out.counters, out.queueMax, out.energy = tr.Counters, tr.MaxQueue, tr.MeanEnergy()
		return out
	}}
}

// benchRows lists the rows in a fixed order, each base row before its
// twin.
func benchRows() []benchRow {
	var rows []benchRow
	for _, s := range expt.Table1(expt.Quick) {
		rows = append(rows, simRow(s.ID, s.Rounds, false, func() (*core.System, core.Adversary, error) {
			sys, err := s.Build()
			if err != nil {
				return nil, nil, err
			}
			if s.Adv != nil {
				return sys, s.Adv(sys), nil
			}
			typ := adversary.Type{Rho: s.Rho, Beta: ratio.FromInt(s.Beta)}
			return sys, adversary.New(typ, adversary.Uniform(sys.N(), s.Seed+1)), nil
		}))
	}

	// Sparse single channel: at ρ = 1/1024 the quiescence engine skips
	// almost the whole run in closed form.
	sparse := func() (*core.System, core.Adversary, error) {
		sys, err := ksubsets.New(6, 3)
		return sys, adversary.New(adversary.T(1, 1024, 1), adversary.Uniform(6, 42)), err
	}
	rows = append(rows,
		simRow("T1.sparse", 2000000, false, sparse),
		simRow("T1.sparse.noskip", 2000000, true, sparse))

	// Substrates: the prior-work broadcast algorithms at their claimed
	// rates and two steady-state routing workloads.
	const subRounds = 150000
	for _, c := range []struct {
		id, alg    string
		rhoN, rhoD int64
	}{
		{"SUB.mbtf", "mbtf", 1, 1},
		{"SUB.rrw", "rrw", 3, 4},
		{"SUB.ofrrw", "ofrrw", 3, 4},
	} {
		rows = append(rows, simRow(c.id, subRounds, false, func() (*core.System, core.Adversary, error) {
			sys, err := expt.Build(c.alg, 8, 0)
			typ := adversary.Type{Rho: ratio.New(c.rhoN, c.rhoD), Beta: ratio.FromInt(2)}
			return sys, adversary.New(typ, adversary.Uniform(8, 11)), err
		}))
	}
	rows = append(rows,
		simRow("SUB.ksubsets", subRounds, false, func() (*core.System, core.Adversary, error) {
			sys, err := ksubsets.New(6, 3)
			return sys, adversary.New(adversary.T(1, 6, 2), adversary.Uniform(6, 42)), err
		}),
		simRow("SUB.aloha", subRounds, false, func() (*core.System, core.Adversary, error) {
			sys, err := randmac.New(8, 4)
			return sys, adversary.New(adversary.T(1, 40, 2), adversary.Uniform(8, 7)), err
		}),
		benchRow{"SUB.pktq", pktqRow},
	)

	// Networks: orchestra replica sets under the budget-split entry
	// adversary, relays included. workers 0 is GOMAXPROCS, 1 serial.
	for _, c := range []struct {
		id      string
		spec    network.Spec
		rounds  int64
		workers int
		mode    string // "" plain orchestra, "jam" jammed duty-cycled aloha, "frontier" its sparse regime
		noskip  bool
	}{
		{"NET.line4", network.Spec{Kind: network.Line, Channels: 4, N: 6}, 100000, 0, "", false},
		{"NET.line4.ser", network.Spec{Kind: network.Line, Channels: 4, N: 6}, 100000, 1, "", false},
		{"NET.star64", network.Spec{Kind: network.Star, Channels: 64, N: 6}, 20000, 0, "", false},
		{"NET.star64.ser", network.Spec{Kind: network.Star, Channels: 64, N: 6}, 20000, 1, "", false},
		{"NET.grid64", network.Spec{Kind: network.Grid, Channels: 64, N: 6}, 20000, 0, "", false},
		{"NET.rand64", network.Spec{Kind: network.Random, Channels: 64, N: 6, Seed: 9}, 20000, 0, "", false},
		{"NET.clique1024", network.Spec{Kind: network.Clique, Channels: 1024, N: 6}, 1500, 0, "", false},
		{"NET.clique1024.ser", network.Spec{Kind: network.Clique, Channels: 1024, N: 6}, 1500, 1, "", false},
		{"NET.jam16", network.Spec{Kind: network.Line, Channels: 16, N: 6}, 50000, 0, "jam", false},
		{"NET.jam16.ser", network.Spec{Kind: network.Line, Channels: 16, N: 6}, 50000, 1, "jam", false},
		{"NET.frontier16", network.Spec{Kind: network.Line, Channels: 16, N: 24}, 50000, 1, "frontier", false},
		{"NET.frontier16.noskip", network.Spec{Kind: network.Line, Channels: 16, N: 24}, 50000, 1, "frontier", true},
	} {
		rows = append(rows, benchRow{c.id, func(tb testing.TB) rowRun {
			return netRow(tb, c.spec, c.rounds, c.workers, c.mode, c.noskip)
		}})
	}
	return rows
}

// netRow runs a network row: a warmup window (buffer growth and ring
// sizing settle there), then the measured window. The entry burst is
// the channel count. Modes "jam" and "frontier" run duty-cycled aloha
// under a budgeted jammer, at ρ = 1/4 with a 32/16 duty cycle and at
// ρ = 1/1024 with an 8/256 one.
func netRow(tb testing.TB, spec network.Spec, rounds int64, workers int, mode string, noskip bool) rowRun {
	topo, err := network.Compile(spec)
	if err != nil {
		tb.Fatal(err)
	}
	pats := make([]adversary.Pattern, topo.Channels())
	for c := range pats {
		pats[c] = adversary.Uniform(topo.Stations(), 31+int64(c)*1000003)
	}
	beta := int64(spec.Channels)
	entry, build := adversary.T(1, 2, beta), func(ch int) (*core.System, error) {
		return orchestra.New(topo.StationsPerChannel())
	}
	opts := network.Options{SampleEvery: -1, Workers: workers, NoSkip: noskip}
	if mode != "" {
		entryDen, dutyParams := int64(4), duty.Params{SleepAfterIdle: 32, WakeEvery: 16}
		if mode == "frontier" {
			entryDen, dutyParams = 1024, duty.Params{SleepAfterIdle: 8, WakeEvery: 256}
		}
		entry = adversary.T(1, entryDen, beta)
		build = func(ch int) (*core.System, error) {
			sys, err := randmac.NewSeeded(topo.StationsPerChannel(), 3, 17)
			if err != nil {
				return nil, err
			}
			sys, _ = duty.Wrap(sys, dutyParams)
			return sys, nil
		}
		opts.Disruptor = network.NewJammer(adversary.T(1, 4, 2), topo.Channels(), 31)
	}
	adv, err := network.NewAdversary(topo, entry, pats)
	if err != nil {
		tb.Fatal(err)
	}
	net, err := network.New(topo, build, adv, opts)
	if err != nil {
		tb.Fatal(err)
	}
	defer net.Close()
	if err := net.Run(min(max(rounds/10, 200), 2000)); err != nil {
		tb.Fatal(err)
	}
	out := rowRun{rounds: rounds}
	out.mallocs, out.elapsed = measured(tb, func() error { return net.Run(rounds) })
	tr := net.Tracker()
	out.counters, out.queueMax, out.energy = tr.Counters, tr.MaxQueue, tr.MeanEnergy()
	return out
}

// pktqRow drives the raw packet queue through a deterministic op mix of
// pushes, destination pops, global pops and removals at a bounded depth;
// "rounds" are operations and queueMax the peak depth.
func pktqRow(tb testing.TB) rowRun {
	const nDests, ops = 16, 600000
	q := pktq.New(nDests)
	state := uint64(0x6ea7c0de)
	var nextID int64
	out := rowRun{rounds: ops}
	out.mallocs, out.elapsed = measured(tb, func() error {
		for i := 0; i < ops; i++ {
			state += 0x9e3779b97f4a7c15
			r := mix64(state)
			switch {
			case q.Len() < 64 && r%3 != 0:
				q.Push(mac.Packet{ID: nextID, Dest: int(r % nDests)})
				nextID++
			case r%5 == 1:
				q.PopFrontTo(int(r % nDests))
			case r%5 == 2 && nextID > 0:
				q.Remove(int64(r>>1) % nextID)
			default:
				q.PopFront()
			}
			out.queueMax = max(out.queueMax, int64(q.Len()))
		}
		return nil
	})
	return out
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func TestBenchRows(t *testing.T) {
	if testing.Short() {
		t.Skip("31 full-horizon rows; run without -short (make allocs)")
	}
	rows := benchRows()
	if len(rows) != len(rowPins) {
		t.Fatalf("%d rows, %d pins", len(rows), len(rowPins))
	}
	got := make(map[string]rowRun, len(rows))
	for _, row := range rows {
		t.Run(row.id, func(t *testing.T) {
			pin, ok := rowPins[row.id]
			if !ok {
				t.Fatalf("no pin for row %s", row.id)
			}
			r := row.run(t)
			got[row.id] = r
			if r.queueMax != pin.queueMax || r.energy != pin.energy {
				t.Errorf("queue_max %d energy %v, pinned %d %v", r.queueMax, r.energy, pin.queueMax, pin.energy)
			}
			if raceEnabled {
				return // race instrumentation allocates on its own
			}
			if a := float64(r.mallocs) / float64(r.rounds); a > pin.allocs+allocsSlack {
				t.Errorf("%.4f allocs/round, ceiling %.4f", a, pin.allocs+allocsSlack)
			}
		})
	}
	for id, r := range got {
		base, contract := strings.TrimSuffix(id, ".ser"), "worker-count independence"
		if base == id {
			base, contract = strings.TrimSuffix(id, ".noskip"), "quiescence-engine bit-identity"
		}
		if base == id {
			continue
		}
		if b, ok := got[base]; !ok {
			t.Errorf("twin %s has no base row %s", id, base)
		} else if b.counters != r.counters {
			t.Errorf("%s and %s diverge: counters differ, queue_max %d vs %d, energy %v vs %v (%s broken)",
				base, id, b.queueMax, r.queueMax, b.energy, r.energy, contract)
		}
	}
}

func BenchmarkBenchRows(b *testing.B) {
	for _, row := range benchRows() {
		b.Run(row.id, func(b *testing.B) {
			var rounds int64
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				r := row.run(b)
				rounds += r.rounds
				elapsed += r.elapsed
			}
			b.ReportMetric(float64(rounds)/elapsed.Seconds()/1e6, "Mrounds/s")
		})
	}
}
