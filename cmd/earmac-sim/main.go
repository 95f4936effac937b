// Command earmac-sim runs one simulation of an energy-capped routing
// algorithm on a shared channel and prints a measurement report.
//
// Usage:
//
//	earmac-sim -alg orchestra -n 8 -rho 1/1 -beta 2 -rounds 200000
//	earmac-sim -alg k-cycle -n 9 -k 3 -rho 1/5 -pattern single-target -src 0 -dest 8
//	earmac-sim -alg count-hop -n 6 -json          # Report in the shared JSON schema
//	earmac-sim -alg orchestra -rounds 5000000 -progress
//
// A -topology turns the run into a network of shared channels (each an
// independent contention domain running its own n-station replica set,
// bridged by relays; see DESIGN.md §11):
//
//	earmac-sim -alg orchestra -topology line -channels 3 -n 5 -rho 1/2 -beta 3
//	earmac-sim -alg count-hop -topology custom -channels 4 -links 0-1,1-2,1-3 -n 4 -json
//
// Scenarios are data: a seeded stochastic pattern or a phase schedule
// describes a whole workload, and any run can be recorded as a
// replayable trace and re-executed bit-for-bit:
//
//	earmac-sim -alg orchestra -pattern bernoulli -seed 7 -rho 1/3
//	earmac-sim -alg count-hop -phases quiet:4000,bursty:2000,poisson-batch:0
//	earmac-sim -alg orchestra -pattern poisson-batch -record run.trace.jsonl
//	earmac-sim -replay run.trace.jsonl -json      # same counters, bit-identical
//	earmac-sim -replay run.trace.jsonl -checked   # replay with the checker attached
//
// The run honours SIGINT: interrupting prints the measurements gathered
// so far and exits 130 so scripts can tell a truncated horizon from a
// completed one.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"earmac"
	"earmac/internal/prof"
	"earmac/internal/ratio"
)

func main() {
	var (
		alg      = flag.String("alg", "orchestra", "algorithm: "+strings.Join(earmac.Algorithms(), ", "))
		n        = flag.Int("n", 8, "number of stations (per channel, with -topology)")
		topology = flag.String("topology", "", "network of channels: "+strings.Join(earmac.Topologies(), ", ")+" (empty = single channel)")
		channels = flag.Int("channels", 0, "channel count for -topology (default 2)")
		links    = flag.String("links", "", "explicit channel links for -topology custom, e.g. 0-1,1-2,1-3")
		netWork  = flag.Int("net-workers", 0, "worker goroutines stepping a network's channels (0 = GOMAXPROCS, 1 = serial; output is identical at any value)")
		k        = flag.Int("k", 3, "energy cap parameter for the k-parameterized algorithms")
		rho      = flag.String("rho", "1/2", "injection rate as a fraction p/q (or an integer)")
		beta     = flag.Int64("beta", 1, "burstiness coefficient β")
		pattern  = flag.String("pattern", "uniform", "injection pattern: "+strings.Join(earmac.Patterns(), ", "))
		src      = flag.Int("src", 0, "source station for targeted patterns")
		dest     = flag.Int("dest", 1, "destination station for targeted patterns")
		seed     = flag.Int64("seed", 1, "seed for randomized patterns")
		rounds   = flag.Int64("rounds", 100000, "rounds to simulate")
		stop     = flag.Int64("stop-injections", 0, "stop injecting after this round (0 = never), to observe draining")
		jamRho   = flag.String("jam-rho", "", "jamming adversary rate ρ_j as a fraction p/q (empty = no jamming; needs a tolerant algorithm, e.g. aloha)")
		jamBeta  = flag.Int64("jam-beta", 0, "jamming burstiness β_j (default 1 with -jam-rho)")
		outages  = flag.String("outages", "", "channel outage windows ch@from+rounds[,...], e.g. 0@1000+200")
		sleepIdl = flag.Int64("sleep-idle", 0, "duty-cycling: sleep instead of listening after this many idle rounds (0 = off)")
		wakeEv   = flag.Int64("wake-every", 0, "duty-cycling: wake a sleeping station every this many rounds")
		enBudget = flag.Int64("energy-budget", 0, "duty-cycling: stop listening for good after this many switched-on rounds (0 = unlimited)")
		lenient  = flag.Bool("lenient", false, "record model violations instead of aborting")
		checked  = flag.Bool("checked", false, "attach the simulator's checker (schedule-conformance scan included)")
		jsonOut  = flag.Bool("json", false, "emit the report as JSON (shared Report schema)")
		progress = flag.Bool("progress", false, "log interim progress snapshots to stderr")
		traceN   = flag.Int64("trace", 0, "log this many rounds of channel events to stderr")
		traceAt  = flag.Int64("trace-from", 0, "first round to trace")
		phases   = flag.String("phases", "", "phase schedule pattern:rounds[,pattern:rounds...] (overrides -pattern; last rounds may be 0 = rest of run)")
		record   = flag.String("record", "", "record a replayable injection trace (JSONL) to this file")
		replay   = flag.String("replay", "", "replay a recorded trace; the trace's config supplies the scenario")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	var cfg earmac.Config
	if *replay != "" {
		// Fail fast on flags the trace supplies: a replayed run takes its
		// scenario (pattern, phases) from the trace, and re-recording a
		// replay would just copy the input. Silently letting one flag win
		// used to hide the mistake.
		if err := replayConflicts(); err != nil {
			fmt.Fprintln(os.Stderr, "earmac-sim:", err)
			os.Exit(2)
		}
		f, err := os.Open(*replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, "earmac-sim:", err)
			os.Exit(2)
		}
		tr, err := earmac.ReadTrace(f)
		f.Close()
		if err == nil {
			cfg, err = earmac.ReplayConfig(tr)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "earmac-sim:", err)
			os.Exit(2)
		}
		if *lenient {
			cfg.Lenient = true
		}
	} else {
		num, den, err := ratio.ParseFrac(*rho)
		if err != nil {
			fmt.Fprintln(os.Stderr, "earmac-sim: bad -rho:", err)
			os.Exit(2)
		}
		lk, err := parseLinks(*links)
		if err != nil {
			fmt.Fprintln(os.Stderr, "earmac-sim:", err)
			os.Exit(2)
		}
		ow, err := parseOutages(*outages)
		if err != nil {
			fmt.Fprintln(os.Stderr, "earmac-sim:", err)
			os.Exit(2)
		}
		cfg = earmac.Config{
			Algorithm:           *alg,
			N:                   *n,
			Topology:            *topology,
			Channels:            *channels,
			Links:               lk,
			K:                   *k,
			RhoNum:              num,
			RhoDen:              den,
			Beta:                *beta,
			Pattern:             *pattern,
			Src:                 *src,
			Dest:                *dest,
			Seed:                *seed,
			Rounds:              *rounds,
			StopInjectionsAfter: *stop,
			Lenient:             *lenient,
			JamBeta:             *jamBeta,
			Outages:             ow,
			SleepAfterIdle:      *sleepIdl,
			WakeEvery:           *wakeEv,
			EnergyBudget:        *enBudget,
		}
		if *jamRho != "" {
			jn, jd, err := ratio.ParseFrac(*jamRho)
			if err != nil {
				fmt.Fprintln(os.Stderr, "earmac-sim: bad -jam-rho:", err)
				os.Exit(2)
			}
			cfg.JamRhoNum, cfg.JamRhoDen = jn, jd
		}
		if *phases != "" {
			ph, err := parsePhases(*phases)
			if err != nil {
				fmt.Fprintln(os.Stderr, "earmac-sim:", err)
				os.Exit(2)
			}
			cfg.Phases = ph
		}
	}
	if *checked {
		cfg.ForceChecked = true
	}
	cfg.NetWorkers = *netWork // runtime-only: composes with -replay too
	var recordFile *os.File
	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			fmt.Fprintln(os.Stderr, "earmac-sim:", err)
			os.Exit(2)
		}
		recordFile = f
		cfg.RecordTo = f
	}
	if *traceN > 0 {
		cfg.Trace = os.Stderr
		cfg.TraceFrom = *traceAt
		cfg.TraceUpTo = *traceAt + *traceN
	}
	if *progress {
		cfg.OnProgress = func(p earmac.Progress) {
			fmt.Fprintf(os.Stderr, "earmac-sim: round %d/%d, pending %d, max queue %d\n",
				p.Round, p.Total, p.Report.Pending, p.Report.MaxQueue)
		}
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "earmac-sim:", err)
		os.Exit(2)
	}

	ps, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "earmac-sim:", err)
		os.Exit(2)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	rep, err := earmac.RunContext(ctx, cfg)
	// Profiles cover exactly the simulation; flush them before any of
	// the exit paths below (os.Exit skips deferred calls).
	if perr := ps.Stop(); perr != nil {
		fmt.Fprintln(os.Stderr, "earmac-sim:", perr)
	}
	interrupted := errors.Is(err, context.Canceled)
	if recordFile != nil {
		if cerr := recordFile.Close(); cerr != nil && err == nil {
			err = cerr
			interrupted = false
		}
	}
	if err != nil && !interrupted {
		fmt.Fprintln(os.Stderr, "earmac-sim:", err)
		os.Exit(1)
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "earmac-sim: interrupted after %d rounds; partial report follows\n", rep.Rounds)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "earmac-sim:", err)
			os.Exit(1)
		}
	} else {
		fmt.Print(rep.Summary())
	}
	if interrupted {
		// Distinguish a truncated horizon from a completed run for scripts.
		os.Exit(130)
	}
}

// replayConflicts returns a typed error (wrapping earmac.ErrConflict)
// when -replay is combined with an explicitly-set flag whose value the
// replayed trace already determines — every scenario flag, not just the
// obviously-colliding ones, so no flag can silently lose to the trace.
// Only the flags that choose *how* to replay (-lenient, -checked,
// -json, -progress, -trace*) compose with -replay. flag.Visit reports
// set flags in lexicographical order, so the message is deterministic.
func replayConflicts() error {
	exclusive := map[string]bool{
		"alg": true, "n": true, "k": true,
		"topology": true, "channels": true, "links": true,
		"rho": true, "beta": true,
		"pattern": true, "phases": true,
		"src": true, "dest": true, "seed": true,
		"rounds": true, "stop-injections": true,
		"record":  true,
		"jam-rho": true, "jam-beta": true, "outages": true,
		"sleep-idle": true, "wake-every": true, "energy-budget": true,
	}
	var set []string
	flag.Visit(func(f *flag.Flag) {
		if exclusive[f.Name] {
			set = append(set, "-"+f.Name)
		}
	})
	if len(set) == 0 {
		return nil
	}
	return fmt.Errorf("earmac: %w: -replay is exclusive with %s (the replayed trace supplies the scenario)",
		earmac.ErrConflict, strings.Join(set, ", "))
}

// parseOutages parses "ch@from+rounds,..." into outage windows.
func parseOutages(spec string) ([]earmac.Outage, error) {
	if spec == "" {
		return nil, nil
	}
	var out []earmac.Outage
	for _, part := range strings.Split(spec, ",") {
		chs, win, ok := strings.Cut(strings.TrimSpace(part), "@")
		if !ok {
			return nil, fmt.Errorf("bad outage %q: want ch@from+rounds", part)
		}
		froms, lens, ok := strings.Cut(win, "+")
		if !ok {
			return nil, fmt.Errorf("bad outage %q: want ch@from+rounds", part)
		}
		ch, err := strconv.Atoi(chs)
		if err != nil {
			return nil, fmt.Errorf("bad outage %q: %v", part, err)
		}
		from, err := strconv.ParseInt(froms, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad outage %q: %v", part, err)
		}
		n, err := strconv.ParseInt(lens, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad outage %q: %v", part, err)
		}
		out = append(out, earmac.Outage{Channel: ch, From: from, Rounds: n})
	}
	return out, nil
}

// parseLinks parses "a-b,c-d,..." into channel-link pairs.
func parseLinks(spec string) ([][2]int, error) {
	if spec == "" {
		return nil, nil
	}
	var out [][2]int
	for _, part := range strings.Split(spec, ",") {
		a, b, ok := strings.Cut(strings.TrimSpace(part), "-")
		if !ok {
			return nil, fmt.Errorf("bad link %q: want from-to", part)
		}
		from, err := strconv.Atoi(a)
		if err != nil {
			return nil, fmt.Errorf("bad link %q: %v", part, err)
		}
		to, err := strconv.Atoi(b)
		if err != nil {
			return nil, fmt.Errorf("bad link %q: %v", part, err)
		}
		out = append(out, [2]int{from, to})
	}
	return out, nil
}

// parsePhases parses "pattern:rounds,pattern:rounds,..." into a phase
// schedule; the last phase may give 0 rounds (rest of the run).
func parsePhases(spec string) ([]earmac.Phase, error) {
	var out []earmac.Phase
	for _, part := range strings.Split(spec, ",") {
		name, rounds, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("bad phase %q: want pattern:rounds", part)
		}
		r, err := strconv.ParseInt(rounds, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad phase %q: %v", part, err)
		}
		out = append(out, earmac.Phase{Pattern: name, Rounds: r})
	}
	return out, nil
}
