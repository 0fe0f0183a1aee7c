package conform

import (
	"context"
	"time"
)

// Sweep defaults: small enough that the full registry (32 variants, 13
// generated and 5 spectral runners) finishes in seconds under `go test`,
// large enough that every runner sees cubic, ragged, padded, threaded,
// warm and multi-box geometries.
const (
	DefaultBoxCases   = 6
	DefaultLevelCases = 2
	// DefaultDistCases is the per-runner distributed (multi-rank) case
	// count; each case runs the full oracle/multi-rank/single-rank
	// triple, so one randomized geometry per runner keeps the tier-1
	// sweep fast while the fuzz target explores the rest of the space.
	DefaultDistCases = 1
	// maxReportDivergences bounds a report: a systematically broken
	// runner should not drown the report in thousands of repro lines.
	maxReportDivergences = 32
)

// SweepConfig parameterizes a deterministic conformance sweep. The zero
// value is usable: full registry, default case counts, bitwise (0 ULP)
// comparison, seed 0.
type SweepConfig struct {
	// Seed offsets the deterministic case sequence; case i uses
	// Seed + i.
	Seed int64 `json:"seed"`
	// BoxCases is the number of single-box cases per runner
	// (DefaultBoxCases if <= 0).
	BoxCases int `json:"box_cases"`
	// LevelCases is the number of multi-box level cases per runner
	// (DefaultLevelCases if <= 0; set to -1 to skip level checks).
	LevelCases int `json:"level_cases"`
	// DistCases is the number of distributed multi-rank cases per
	// variant runner (DefaultDistCases if 0; set to -1 to skip
	// distributed checks). Generated and spectral runners are skipped —
	// the distributed runtime executes sched variants.
	DistCases int `json:"dist_cases"`
	// MaxULP bounds the differential comparison; the repository
	// guarantee is bitwise, i.e. 0.
	MaxULP uint64 `json:"max_ulp"`
	// Runners overrides the registry (nil means Registry()).
	Runners []Runner `json:"-"`
}

func (cfg SweepConfig) normalized() SweepConfig {
	if cfg.BoxCases <= 0 {
		cfg.BoxCases = DefaultBoxCases
	}
	switch {
	case cfg.LevelCases == 0:
		cfg.LevelCases = DefaultLevelCases
	case cfg.LevelCases < 0:
		cfg.LevelCases = 0
	}
	switch {
	case cfg.DistCases == 0:
		cfg.DistCases = DefaultDistCases
	case cfg.DistCases < 0:
		cfg.DistCases = 0
	}
	if cfg.Runners == nil {
		cfg.Runners = Registry()
	}
	return cfg
}

// Report summarizes one conformance sweep. It serializes to JSON for
// the stencilserved /v1/conformance endpoint.
type Report struct {
	Seed       int64 `json:"seed"`
	Runners    int   `json:"runners"`
	BoxCases   int   `json:"box_cases_per_runner"`
	LevelCases int   `json:"level_cases_per_runner"`
	DistCases  int   `json:"dist_cases_per_runner"`
	// Checks is the number of (runner, case) checks executed.
	Checks int `json:"checks"`
	// Divergences holds the minimized failures, capped at
	// maxReportDivergences (Truncated reports whether the cap was hit).
	Divergences []*Divergence `json:"divergences"`
	Truncated   bool          `json:"truncated,omitempty"`
	ElapsedMS   float64       `json:"elapsed_ms"`
}

// OK reports whether the sweep found no divergence.
func (r *Report) OK() bool { return len(r.Divergences) == 0 && !r.Truncated }

// Sweep runs the deterministic conformance sweep described by cfg:
// every runner against BoxCases single-box cases (RandomCase(Seed+i))
// and LevelCases multi-box level cases (RandomLevelCase(Seed+i)).
// Failures are minimized before being recorded, so each recorded
// divergence carries a small replayable repro line. The only error is
// ctx cancellation; conformance failures live in the report.
func Sweep(ctx context.Context, cfg SweepConfig) (*Report, error) {
	cfg = cfg.normalized()
	start := time.Now()
	rep := &Report{
		Seed:       cfg.Seed,
		Runners:    len(cfg.Runners),
		BoxCases:   cfg.BoxCases,
		LevelCases: cfg.LevelCases,
		DistCases:  cfg.DistCases,
	}
	record := func(dv *Divergence) {
		if len(rep.Divergences) < maxReportDivergences {
			rep.Divergences = append(rep.Divergences, dv)
		} else {
			rep.Truncated = true
		}
	}
	for _, r := range cfg.Runners {
		// Spectral runners carry a periodic-only contract and a rounding
		// tolerance: they sweep CheckPeriodic over the box cases and skip
		// level and distributed checks (both assume NGhost-deep bitwise
		// ghost exchange).
		if r.Spectral {
			for i := 0; i < cfg.BoxCases; i++ {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				c := RandomCase(cfg.Seed + int64(i))
				rep.Checks++
				if dv := CheckPeriodic(r, c); dv != nil {
					_, mdv := MinimizePeriodic(r, c)
					if mdv == nil {
						mdv = dv
					}
					record(mdv)
				}
			}
			continue
		}
		for i := 0; i < cfg.BoxCases; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			c := RandomCase(cfg.Seed + int64(i))
			rep.Checks++
			if dv := CheckBox(r, c, cfg.MaxULP); dv != nil {
				_, mdv := Minimize(r, c, cfg.MaxULP)
				if mdv == nil {
					mdv = dv // flaky shrink: keep the original failure
				}
				record(mdv)
			}
		}
		for i := 0; i < cfg.LevelCases; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			lc := RandomLevelCase(cfg.Seed + int64(i))
			rep.Checks++
			if dv := CheckLevel(r, lc, cfg.MaxULP); dv != nil {
				_, mdv := MinimizeLevel(r, lc, cfg.MaxULP)
				if mdv == nil {
					mdv = dv
				}
				record(mdv)
			}
		}
		// Distributed multi-rank checks: variant runners only (the
		// distributed runtime executes sched variants). Each runner draws a
		// different geometry (seed offset by its registry position) so
		// the sweep covers rank counts, halo depths, and shuffled
		// assignments across the registry.
		if vi, ok := studiedIndex(r); ok {
			for i := 0; i < cfg.DistCases; i++ {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				dc := RandomDistCase(cfg.Seed + int64(1000*vi+i))
				dc.VariantIdx = vi
				rep.Checks++
				if dv := CheckDist(dc, cfg.MaxULP); dv != nil {
					_, mdv := MinimizeDist(dc, cfg.MaxULP)
					if mdv == nil {
						mdv = dv
					}
					record(mdv)
				}
			}
		}
	}
	rep.ElapsedMS = float64(time.Since(start).Microseconds()) / 1e3
	return rep, nil
}
