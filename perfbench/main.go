// Command perfbench is earmac's benchmark: it runs one named workload
// through the public API for a fixed time, checks every output, and
// prints each metric BENCHMARK.json declares, by name and unit. An
// untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) runs the same ops and reports the per-layer metrics. See
// README.md for the workloads and what each metric should move.
//
//	bash perfbench/run.sh --workload table-checked --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, metrics. A human-readable summary goes to standard
// error, and the full result — host, digest, metrics, and on a traced
// run every span — to .bench_build/results/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// resultDir is where each run's full result is written, relative to the
// working directory.
const resultDir = ".bench_build/results"

func main() {
	workload := flag.String("workload", "", "workload to run: table-checked, sweep-fast, net-relay or serve-run")
	seed := flag.Int64("seed", defaultSeed, "workload seed; configs are a pure function of it")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	if err := mainErr(options{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(opts options) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	res, err := run(opts, spec)
	if err != nil {
		return err
	}
	if err := writeResult(res); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s trace=%v: %d ops in %d passes, %d failed, digest %s\nhost: %s\n",
		res.Workload, res.Traced, res.Attempted, res.Passes, res.Failed, res.Digest, res.Host)
	if res.Attempted > 0 {
		fmt.Fprintf(os.Stderr, "  %-34s %14.6g ratio\n", "ops_failed_ratio", float64(res.Failed)/float64(res.Attempted))
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]value, len(res.Metrics))
	for _, m := range spec.metrics(opts.traced) {
		v := res.Metrics[m.Name]
		out[m.Name] = value{v, m.Unit}
		fmt.Fprintf(os.Stderr, "  %-34s %14.6g %s\n", m.Name, v, m.Unit)
	}
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "FAIL:", f)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d ops failed", res.Failed, res.Attempted)
	}
	return nil
}

// writeResult stores the full result, spans included.
func writeResult(res *result) error {
	if err := os.MkdirAll(resultDir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v.json", res.Workload, res.Host.Seed, res.Traced)
	raw, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(resultDir, name), raw, 0o644)
}
