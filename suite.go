package earmac

import (
	"context"
	"errors"

	"earmac/internal/pool"
)

// Rho is an exact injection-rate fraction Num/Den.
type Rho struct {
	Num int64 `json:"num"`
	Den int64 `json:"den"`
}

// Grid builds a config grid — the shape of the paper's Table 1, every
// algorithm crossed with system sizes, rates, burstiness, and adversary
// patterns. Each listed dimension is crossed with every other; an empty
// dimension keeps the Base value. Base supplies everything the grid does
// not vary (rounds, leniency, targeting, …).
type Grid struct {
	Algorithms []string `json:"algorithms,omitempty"`
	Ns         []int    `json:"ns,omitempty"`
	Ks         []int    `json:"ks,omitempty"`
	Rhos       []Rho    `json:"rhos,omitempty"`
	Betas      []int64  `json:"betas,omitempty"`
	Patterns   []string `json:"patterns,omitempty"`
	// Channels, when non-empty, crosses network channel counts (the
	// sweep axis for networks of shared channels; Base.Topology selects
	// the shape). An empty dimension keeps Base.Channels.
	Channels []int `json:"channels,omitempty"`
	// Seeds, when non-empty, crosses the listed pattern seeds as the
	// innermost dimension — the seed-sweep axis for stochastic
	// scenarios. Each cell then runs with exactly the listed seed
	// instead of a derived one.
	Seeds []int64 `json:"seeds,omitempty"`
	Base  Config  `json:"base,omitempty"`
}

// Configs enumerates the cross product in deterministic order: algorithm
// outermost, then n, k, ρ, β, pattern, channel count, and seed innermost. Without an
// explicit Seeds dimension each cell gets its own derived seed —
// Base.Seed (default 1) plus the cell's index — so randomized patterns
// are independent across cells yet reproducible; with Seeds, cells use
// the listed seeds verbatim. Either way the enumeration (and therefore
// the Suite report) is independent of how many workers later run it.
func (g Grid) Configs() []Config {
	algs := g.Algorithms
	if len(algs) == 0 {
		algs = []string{g.Base.Algorithm}
	}
	ns := g.Ns
	if len(ns) == 0 {
		ns = []int{g.Base.N}
	}
	ks := g.Ks
	if len(ks) == 0 {
		ks = []int{g.Base.K}
	}
	rhos := g.Rhos
	if len(rhos) == 0 {
		rhos = []Rho{{g.Base.RhoNum, g.Base.RhoDen}}
	}
	betas := g.Betas
	if len(betas) == 0 {
		betas = []int64{g.Base.Beta}
	}
	pats := g.Patterns
	if len(pats) == 0 {
		pats = []string{g.Base.Pattern}
	}
	chans := g.Channels
	if len(chans) == 0 {
		chans = []int{g.Base.Channels}
	}
	baseSeed := g.Base.Seed
	if baseSeed == 0 {
		baseSeed = 1
	}
	seeds := g.Seeds
	deriveSeed := len(seeds) == 0
	if deriveSeed {
		seeds = []int64{0} // placeholder; the cell derives its own
	}
	cfgs := make([]Config, 0, len(algs)*len(ns)*len(ks)*len(rhos)*len(betas)*len(pats)*len(chans)*len(seeds))
	for _, alg := range algs {
		for _, n := range ns {
			for _, k := range ks {
				for _, rho := range rhos {
					for _, beta := range betas {
						for _, pat := range pats {
							for _, ch := range chans {
								for _, seed := range seeds {
									c := g.Base
									// RecordTo is per-cell state: one shared writer
									// interleaved by parallel cells would yield a
									// corrupt trace. Assign per-cell writers on the
									// Suite's Configs instead (as earmac-sweep
									// -record-dir does). Replay stays inherited —
									// cells build independent cursors over the
									// shared, read-only trace.
									c.RecordTo = nil
									c.Algorithm = alg
									c.N = n
									c.K = k
									c.RhoNum, c.RhoDen = rho.Num, rho.Den
									c.Beta = beta
									c.Pattern = pat
									c.Channels = ch
									if deriveSeed {
										c.Seed = baseSeed + int64(len(cfgs))
									} else {
										c.Seed = seed
									}
									cfgs = append(cfgs, c)
								}
							}
						}
					}
				}
			}
		}
	}
	return cfgs
}

// Suite is an ordered list of configurations run as one batch.
type Suite struct {
	Configs []Config `json:"configs"`
}

// NewSuite builds a Suite from a grid.
func NewSuite(g Grid) Suite { return Suite{Configs: g.Configs()} }

// SuiteOptions tunes Suite.Run.
type SuiteOptions struct {
	// Workers bounds the worker pool; <= 0 means GOMAXPROCS.
	Workers int
	// OnResult, when non-nil, is invoked as each cell finishes, in
	// completion order. It may be called from multiple goroutines
	// concurrently.
	OnResult func(SuiteResult)
}

// Per-cell verdicts.
const (
	VerdictStable   = "stable"
	VerdictUnstable = "unstable"
	VerdictError    = "error"
	VerdictSkipped  = "skipped" // cell not run, or interrupted, by context cancellation
)

// SuiteResult is one cell's outcome.
type SuiteResult struct {
	// Index is the cell's position in Suite.Configs; results are always
	// reported in index order regardless of worker count.
	Index   int    `json:"index"`
	Config  Config `json:"config"`
	Report  Report `json:"report"`
	Verdict string `json:"verdict"`
	Error   string `json:"error,omitempty"`
}

// SuiteReport aggregates a suite run. It is JSON-serializable and
// byte-identical across worker counts for the same Configs.
type SuiteReport struct {
	Cells    int           `json:"cells"`
	Stable   int           `json:"stable"`
	Unstable int           `json:"unstable"`
	Errors   int           `json:"errors"`
	Skipped  int           `json:"skipped,omitempty"`
	Results  []SuiteResult `json:"results"`
}

// Run executes every config across a bounded worker pool. Each cell is
// independent (own system, adversary, tracker), so runs are
// deterministic per cell and the assembled report does not depend on the
// worker count. A cell that fails validation or simulation is recorded
// with VerdictError; the suite keeps going. On context cancellation Run
// returns the partial report alongside ctx.Err(), with unreached and
// interrupted cells marked VerdictSkipped.
func (s Suite) Run(ctx context.Context, opts SuiteOptions) (SuiteReport, error) {
	results := make([]SuiteResult, len(s.Configs))
	for i := range results {
		results[i] = SuiteResult{Index: i, Config: s.Configs[i], Verdict: VerdictSkipped}
	}
	err := pool.RunIndexed(ctx, len(s.Configs), opts.Workers, func(i int) {
		res := runCell(ctx, i, s.Configs[i])
		results[i] = res
		if opts.OnResult != nil {
			opts.OnResult(res)
		}
	})
	return aggregate(results), err
}

func runCell(ctx context.Context, i int, cfg Config) SuiteResult {
	res := SuiteResult{Index: i, Config: cfg}
	rep, err := RunContext(ctx, cfg)
	res.Report = rep
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// An interrupted cell is not a failure of the cell.
		res.Verdict = VerdictSkipped
		res.Error = err.Error()
	case err != nil:
		res.Verdict = VerdictError
		res.Error = err.Error()
	case rep.Stable:
		res.Verdict = VerdictStable
	default:
		res.Verdict = VerdictUnstable
	}
	return res
}

func aggregate(results []SuiteResult) SuiteReport {
	rep := SuiteReport{Cells: len(results), Results: results}
	for _, r := range results {
		switch r.Verdict {
		case VerdictStable:
			rep.Stable++
		case VerdictUnstable:
			rep.Unstable++
		case VerdictError:
			rep.Errors++
		case VerdictSkipped:
			rep.Skipped++
		}
	}
	return rep
}
