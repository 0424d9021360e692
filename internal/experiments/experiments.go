// Package experiments regenerates every table, figure and numbered result
// of the paper's analysis, pairing each analytic claim with an independent
// Monte-Carlo (or geometric) measurement. The experiment index — IDs,
// paper artefacts, workloads, and the modules that implement each piece —
// is documented in DESIGN.md; EXPERIMENTS.md records the paper-vs-measured
// outcomes produced by this package.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"diversity/internal/system"
	"diversity/internal/telemetry"
)

// Config parameterises an experiment run.
type Config struct {
	// Seed drives all randomness; a fixed seed reproduces a run exactly.
	Seed uint64
	// Quick reduces replication counts by roughly an order of magnitude
	// so that the full suite can run in test and bench loops. Headline
	// checks still pass in quick mode; confidence intervals are wider.
	Quick bool
	// Streaming runs the Monte-Carlo passes of moment- and counter-based
	// experiments (E01, E04) with constant-memory aggregation
	// (montecarlo Config.Streaming). Experiments that need the raw PFD
	// sample — empirical CDFs, KS tests, per-sample sweeps — always run
	// buffered regardless of this flag.
	Streaming bool
	// Sparse runs the same Monte-Carlo passes with the geometric
	// skip-sampling development kernel (montecarlo Config.Sparse). The
	// kernel draws a different variate sequence for the same seed, so
	// measured columns shift within Monte-Carlo error while every
	// model-derived column is unchanged.
	Sparse bool
	// Versions and Adjudicator, when set together, ask the adjudicated
	// experiments (E19) to evaluate one extra arrangement — the requested
	// pool size under the requested voting rule — next to their standard
	// rows. Left zero/nil, every experiment's output is byte-identical to
	// the pair-shaped suite.
	Versions    int
	Adjudicator system.Adjudicator
	// Metrics, when non-nil, receives per-experiment wall time: the
	// aggregate histogram "experiments.wall_time_seconds" and one gauge
	// "experiments.wall_time_seconds.<ID>" per experiment. Metrics does
	// not affect any measured result.
	Metrics *telemetry.Registry
}

// reps scales a replication count for quick mode.
func (c Config) reps(full int) int {
	if c.Quick {
		reduced := full / 10
		if reduced < 1000 {
			reduced = min(full, 1000)
		}
		return reduced
	}
	return full
}

// Check is one paper-vs-measured assertion.
type Check struct {
	// Name identifies the assertion.
	Name string
	// Paper states what the paper claims or reports.
	Paper string
	// Measured states what this reproduction measured.
	Measured string
	// Pass reports whether the measurement agrees with the claim.
	Pass bool
}

// Result is the outcome of one experiment.
type Result struct {
	// ID is the experiment identifier (e.g. "E07").
	ID string
	// Title describes the paper artefact being regenerated.
	Title string
	// Text holds the rendered tables and figures.
	Text string
	// Checks are the experiment's paper-vs-measured assertions.
	Checks []Check
}

// Passed reports whether every check passed.
func (r *Result) Passed() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// Summary renders the check list as text.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", r.ID, r.Title)
	for _, c := range r.Checks {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "  [%s] %s\n        paper:    %s\n        measured: %s\n", status, c.Name, c.Paper, c.Measured)
	}
	return b.String()
}

// Runner executes one experiment. The context is threaded into every
// simulation-backed workload so long experiments cancel promptly.
type Runner func(ctx context.Context, cfg Config) (*Result, error)

// registry maps experiment IDs to runners. Populated by the e*.go files.
var registry = map[string]Runner{}

// register is called from init-free variable blocks in the experiment
// files; duplicate registration is a programming error caught by tests.
func register(id string, r Runner) struct{} {
	if _, dup := registry[id]; dup {
		panic(fmt.Sprintf("experiments: duplicate registration of %s", id))
	}
	registry[id] = r
	return struct{}{}
}

// IDs returns all registered experiment IDs in order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes the experiment with the given ID. It is equivalent to
// RunContext with a background context.
func Run(id string, cfg Config) (*Result, error) {
	return RunContext(context.Background(), id, cfg)
}

// RunContext executes the experiment with the given ID under a context;
// a cancelled context aborts the experiment's simulation workloads and
// returns an error wrapping ctx.Err().
func RunContext(ctx context.Context, id string, cfg Config) (*Result, error) {
	runner, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	start := time.Now()
	res, err := runner(ctx, cfg)
	if cfg.Metrics != nil {
		wall := time.Since(start).Seconds()
		cfg.Metrics.Histogram("experiments.wall_time_seconds", telemetry.DurationBuckets).Observe(wall)
		cfg.Metrics.Gauge("experiments.wall_time_seconds." + id).Set(wall)
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	return res, nil
}
