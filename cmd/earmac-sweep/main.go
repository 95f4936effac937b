// Command earmac-sweep runs parameter sweeps and emits CSV for plotting:
// injection rate ρ against latency/queues (the universality curves),
// energy cap k against latency (the paper's open tradeoff question, §7),
// or system size n against latency (the polynomial growth of the
// bounds). The sweep is a Suite: every point runs as an independent cell
// on a bounded worker pool, with deterministic output order.
//
// Usage:
//
//	earmac-sweep -mode rho  -alg count-hop -n 6            > rho.csv
//	earmac-sweep -mode cap  -alg k-cycle  -n 13            > cap.csv
//	earmac-sweep -mode size -alg orchestra -rho 1/1        > size.csv
//	earmac-sweep -mode rho  -alg count-hop -n 6 -json      > rho.json
//	earmac-sweep -mode cap  -alg k-cycle  -n 13 -parallel 8
//
// Seed sweeps quantify run-to-run spread of stochastic scenarios; the
// report is deterministic and independent of the worker count, so a
// seed sweep is itself reproducible. -seeds also crosses seeds into any
// other mode, and -record-dir captures every cell as a replayable
// trace:
//
//	earmac-sweep -mode seed -alg orchestra -pattern bernoulli -seeds 1,2,3,4 > seeds.csv
//	earmac-sweep -mode rho  -alg count-hop -pattern poisson-batch -seeds 5,6 -record-dir traces/
//
// Networks of channels sweep too: -topology fixes the shape and -mode
// channels grids the channel count (2..-max-channels), the scaling axis
// of the multi-hop setting:
//
//	earmac-sweep -mode channels -topology line -alg orchestra -n 5 -beta 4 > channels.csv
//	earmac-sweep -mode rho -topology star -channels 3 -alg count-hop -n 4 > net-rho.csv
//
// -mode frontier charts the energy–latency frontier of duty-cycled
// stations under jamming: it crosses -jam-rhos (jamming intensity) with
// -sleep-idles (duty-cycle tightness) on a tolerant algorithm (default
// aloha), one CSV row per cell with energy falling as duty-cycling
// tightens within each jam group:
//
//	earmac-sweep -mode frontier -n 6 -k 3 -rho 1/4 > frontier.csv
//	earmac-sweep -mode frontier -jam-rhos 0,1/4,1/2 -sleep-idles 0,64,16 -rounds 50000
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"

	"earmac"
	"earmac/internal/pool"
	"earmac/internal/ratio"
)

func main() {
	var (
		mode      = flag.String("mode", "rho", "sweep variable: rho, cap, size, seed, channels, or frontier")
		alg       = flag.String("alg", "count-hop", "algorithm")
		n         = flag.Int("n", 6, "number of stations (per channel, with -topology; fixed for rho/cap sweeps)")
		topology  = flag.String("topology", "", "network of channels: "+strings.Join(earmac.Topologies(), ", ")+" (required for -mode channels)")
		channels  = flag.Int("channels", 0, "fixed channel count for -topology outside -mode channels (default 2)")
		maxChan   = flag.Int("max-channels", 6, "largest channel count for -mode channels")
		k         = flag.Int("k", 3, "energy cap parameter (fixed for rho/size sweeps)")
		rho       = flag.String("rho", "1/2", "injection rate (fixed for cap/size sweeps)")
		beta      = flag.Int64("beta", 1, "burstiness coefficient")
		pattern   = flag.String("pattern", "uniform", "injection pattern")
		rounds    = flag.Int64("rounds", 100000, "rounds per point")
		seed      = flag.Int64("seed", 1, "base pattern seed (each point derives its own)")
		seeds     = flag.String("seeds", "", "comma-separated seed list crossed into the sweep (default 1..8 for -mode seed)")
		parallel  = flag.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS, 1 = serial)")
		netWork   = flag.Int("net-workers", 1, "channel-stepping workers inside each network cell (0 = GOMAXPROCS, 1 = serial; results are identical at any value). The default stays serial because -parallel already runs cells concurrently")
		jsonOut   = flag.Bool("json", false, "emit the full SuiteReport as JSON instead of CSV")
		recordDir = flag.String("record-dir", "", "record every cell as a replayable trace cell-NNN.trace.jsonl under this directory")
		jamRhos   = flag.String("jam-rhos", "0,1/8,1/4", "-mode frontier: comma-separated jamming rates ρ_j (0 = no jamming)")
		sleepIdls = flag.String("sleep-idles", "0,128,32,8", "-mode frontier: comma-separated sleep-after-idle thresholds (0 = no duty-cycling), loosest first")
		jamBeta   = flag.Int64("jam-beta", 1, "-mode frontier: jamming burstiness β_j")
		wakeEvery = flag.Int64("wake-every", 64, "-mode frontier: wake period of duty-cycled stations (applies to cells that sleep)")
	)
	flag.Parse()

	// The frontier mode needs a jam/duty-tolerant algorithm; switch its
	// default to aloha unless the user picked one explicitly.
	if *mode == "frontier" && !flagSet("alg") {
		*alg = "aloha"
	}

	// Resolve the documented channel default here rather than inside Run,
	// so every cell's Config (and the CSV channels column) carries the
	// count the cell actually ran with.
	if *topology != "" && *channels == 0 {
		*channels = 2
	}

	num, den, err := ratio.ParseFrac(*rho)
	if err != nil {
		fail(fmt.Errorf("bad -rho: %v", err))
	}

	grid := earmac.Grid{
		Base: earmac.Config{
			Algorithm: *alg, N: *n, K: *k,
			Topology: *topology, Channels: *channels,
			RhoNum: num, RhoDen: den, Beta: *beta,
			Pattern: *pattern,
			Rounds:  *rounds, Seed: *seed,
			Lenient: true, DisableChecks: true,
			NetWorkers: *netWork,
		},
	}
	if *seeds != "" {
		list, err := parseSeeds(*seeds)
		if err != nil {
			fail(err)
		}
		grid.Seeds = list
	}
	switch *mode {
	case "seed":
		if len(grid.Seeds) == 0 {
			for s := int64(1); s <= 8; s++ {
				grid.Seeds = append(grid.Seeds, s)
			}
		}
	case "rho":
		// ρ from 1/10 up to 19/20 plus ρ = 1.
		grid.Rhos = []earmac.Rho{
			{Num: 1, Den: 10}, {Num: 1, Den: 5}, {Num: 3, Den: 10}, {Num: 2, Den: 5},
			{Num: 1, Den: 2}, {Num: 3, Den: 5}, {Num: 7, Den: 10}, {Num: 4, Den: 5},
			{Num: 9, Den: 10}, {Num: 19, Den: 20}, {Num: 1, Den: 1},
		}
	case "cap":
		for kk := 2; kk <= *n-1; kk++ {
			grid.Ks = append(grid.Ks, kk)
		}
	case "size":
		grid.Ns = []int{4, 6, 8, 10, 12, 14, 16}
	case "channels":
		if *topology == "" {
			fail(fmt.Errorf("-mode channels needs -topology (one of %s)",
				strings.Join(earmac.Topologies(), ", ")))
		}
		for c := 2; c <= *maxChan; c++ {
			grid.Channels = append(grid.Channels, c)
		}
	case "frontier":
		// Energy–latency frontier: duty-cycle tightness × jamming
		// intensity, axes Grid doesn't model. The suite is assembled
		// below from explicit cells.
	default:
		fail(fmt.Errorf("unknown mode %q", *mode))
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	suite := earmac.NewSuite(grid)
	if *mode == "frontier" {
		cells, ferr := frontierCells(grid.Base, *jamRhos, *sleepIdls, *jamBeta, *wakeEvery)
		if ferr != nil {
			fail(ferr)
		}
		suite = earmac.Suite{Configs: cells}
	}
	var traceFiles []*os.File
	if *recordDir != "" {
		if err := os.MkdirAll(*recordDir, 0o755); err != nil {
			fail(err)
		}
		for i := range suite.Configs {
			f, err := os.Create(filepath.Join(*recordDir, fmt.Sprintf("cell-%03d.trace.jsonl", i)))
			if err != nil {
				fail(err)
			}
			traceFiles = append(traceFiles, f)
			suite.Configs[i].RecordTo = f
		}
	}
	rep, err := suite.Run(ctx, earmac.SuiteOptions{Workers: pool.Workers(*parallel)})
	for _, f := range traceFiles {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		fail(err)
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "earmac-sweep: interrupted; emitting the %d completed points\n",
			rep.Cells-rep.Skipped)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fail(err)
		}
		if interrupted {
			os.Exit(130)
		}
		return
	}

	if *mode == "frontier" {
		fmt.Println("jam_rho,sleep_idle,wake_every,mean_energy,mean_latency,delivered,dropped,sleep_rounds,jammed_rounds,stable")
		for _, res := range rep.Results {
			if res.Verdict == earmac.VerdictSkipped {
				continue
			}
			if res.Error != "" {
				fail(fmt.Errorf("cell %d (%s): %s", res.Index, res.Config.Algorithm, res.Error))
			}
			cfg, r := res.Config, res.Report
			fmt.Printf("%s,%d,%d,%.3f,%.2f,%d,%d,%d,%d,%v\n",
				fracString(cfg.JamRhoNum, cfg.JamRhoDen), cfg.SleepAfterIdle, cfg.WakeEvery,
				r.MeanEnergy, r.MeanLatency, r.Delivered, r.Dropped, r.SleepRounds, r.JammedRounds, r.Stable)
		}
		if interrupted {
			os.Exit(130)
		}
		return
	}

	fmt.Println("x,rho,n,k,channels,seed,stable,max_queue,final_queue,queue_slope,max_latency,mean_latency,p99_latency,mean_energy")
	for _, res := range rep.Results {
		if res.Verdict == earmac.VerdictSkipped {
			continue
		}
		if res.Error != "" {
			fail(fmt.Errorf("cell %d (%s): %s", res.Index, res.Config.Algorithm, res.Error))
		}
		cfg, r := res.Config, res.Report
		var x string
		switch *mode {
		case "rho":
			x = fmt.Sprintf("%g", float64(cfg.RhoNum)/float64(cfg.RhoDen))
		case "cap":
			x = strconv.Itoa(cfg.K)
		case "size":
			x = strconv.Itoa(cfg.N)
		case "seed":
			x = strconv.FormatInt(cfg.Seed, 10)
		case "channels":
			x = strconv.Itoa(cfg.Channels)
		}
		fmt.Printf("%s,%d/%d,%d,%d,%d,%d,%v,%d,%d,%.6f,%d,%.2f,%d,%.3f\n",
			x, cfg.RhoNum, cfg.RhoDen, cfg.N, cfg.K, cfg.Channels, cfg.Seed, r.Stable, r.MaxQueue, r.FinalQueue,
			r.QueueSlope, r.MaxLatency, r.MeanLatency, r.P99Latency, r.MeanEnergy)
	}
	if interrupted {
		os.Exit(130)
	}
}

// flagSet reports whether the named flag was given on the command line.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// frontierCells crosses jamming intensity (outer axis) with duty-cycle
// tightness (inner axis) over the base config, so each CSV group holds
// one jam rate with energy falling as duty-cycling tightens. Cells that
// never sleep (idle threshold 0) leave the wake period unset — the
// façade rejects a wake schedule nothing sleeps on.
func frontierCells(base earmac.Config, jamRhos, sleepIdles string, jamBeta, wakeEvery int64) ([]earmac.Config, error) {
	var jams [][2]int64
	for _, part := range strings.Split(jamRhos, ",") {
		num, den, err := ratio.ParseFrac(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -jam-rhos: %v", err)
		}
		jams = append(jams, [2]int64{num, den})
	}
	var idles []int64
	for _, part := range strings.Split(sleepIdles, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -sleep-idles: %v", err)
		}
		idles = append(idles, v)
	}
	var cells []earmac.Config
	for _, jam := range jams {
		for _, idle := range idles {
			cfg := base
			if jam[0] > 0 {
				cfg.JamRhoNum, cfg.JamRhoDen = jam[0], jam[1]
				cfg.JamBeta = jamBeta
			}
			if idle > 0 {
				cfg.SleepAfterIdle = idle
				cfg.WakeEvery = wakeEvery
			}
			cells = append(cells, cfg)
		}
	}
	return cells, nil
}

// fracString renders an exact fraction compactly ("0", "1", "1/8").
func fracString(num, den int64) string {
	if num == 0 {
		return "0"
	}
	if den == 1 {
		return strconv.FormatInt(num, 10)
	}
	return fmt.Sprintf("%d/%d", num, den)
}

func parseSeeds(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed list %q: %v", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "earmac-sweep:", err)
	os.Exit(1)
}
