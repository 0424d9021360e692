// Command mcsim runs Monte-Carlo simulations of the fault creation
// process: it develops many version pairs (or larger version groups),
// combines them under a voting rule (-adjudicator), and reports
// the simulated PFD populations next to the model's analytic predictions.
//
// Runs are expressed as engine jobs and executed through the unified
// execution engine (internal/engine): Ctrl-C cancels a long run promptly,
// -progress reports replications completed on stderr, and repeated
// identical jobs within one process are served from the engine's result
// cache (disable it and the model cache with -no-cache).
//
// Observability (shared with the other CLIs): -metrics-addr serves
// Prometheus exposition (/metrics), expvar, pprof, the flight recorder
// (/debug/events) and retained traces (/debug/traces) over HTTP;
// -telemetry-json writes the final metrics snapshot atomically;
// -log-level controls the structured stderr log and -max-traces the
// trace retention. None of the telemetry flags change what is written
// to stdout.
//
// Usage:
//
//	mcsim -scenario commercial-grade -reps 200000 [-versions 2] [-adjudicator 1oon]
//	mcsim -model model.json -reps 100000 -correlation 0.2
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"diversity/internal/cliutil"
	"diversity/internal/engine"
	"diversity/internal/montecarlo"
	"diversity/internal/report"
	"diversity/internal/system"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mcsim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	flags := flag.NewFlagSet("mcsim", flag.ContinueOnError)
	modelPath := flags.String("model", "", "path to a model JSON file (\"-\" for stdin)")
	scenarioName := flags.String("scenario", "", "named scenario: safety-grade | many-small-faults | commercial-grade | n-version-pool | million-faults")
	reps := flags.Int("reps", 100000, "number of replications")
	versions := flags.Int("versions", 2, "versions per replication")
	adjName := flags.String("adjudicator", "", "voting rule: 1oon (default) | majority | KooN (e.g. 2oo3), optionally @pfd for an imperfect adjudication stage (e.g. 2oo3@1e-4)")
	workers := flags.Int("workers", 0, "worker goroutines (0 = all cores); output depends on -seed alone, not on this")
	seed := flags.Uint64("seed", 1, "random seed")
	correlation := flags.Float64("correlation", 0, "common-cause probability (0 = the paper's independent model)")
	boost := flags.Float64("boost", 3, "common-cause boost factor (with -correlation > 0)")
	rare := flags.Bool("rare", false, "estimate P(system carries any fault) by importance sampling (for safety-grade regimes)")
	stream := flags.Bool("stream", false, "constant-memory streaming aggregation (quantiles at histogram resolution)")
	sparse := flags.Bool("sparse", false, "geometric skip-sampling development kernel (O(faults present) per replication; different variate sequence, identical distribution)")
	progress := flags.Bool("progress", false, "report progress on stderr as replications complete")
	noCache := flags.Bool("no-cache", false, "disable the engine's in-memory result and model caches")
	tf := cliutil.RegisterTelemetryFlags(flags)
	if err := flags.Parse(args); err != nil {
		return err
	}

	// Flag validation happens before any model loading or simulation work.
	if err := cliutil.ValidateCounts(*reps, *workers); err != nil {
		return err
	}
	if *versions < 1 {
		return fmt.Errorf("versions per replication %d must be at least 1", *versions)
	}
	adj, err := engine.ResolveAdjudicator("", *adjName, *versions)
	if err != nil {
		return err
	}
	if *correlation < 0 || *correlation > 1 {
		return fmt.Errorf("correlation %v must be a probability", *correlation)
	}

	model, err := cliutil.JobModel(*modelPath, *scenarioName, *seed)
	if err != nil {
		return err
	}
	tel, err := tf.Open(os.Stderr)
	if err != nil {
		return err
	}
	defer tel.Shutdown()
	opts := tel.EngineOptions(engine.Options{DisableCache: *noCache})
	if *progress {
		opts.Progress = cliutil.ProgressPrinter(os.Stderr)
	}
	eng := engine.New(opts)

	if *rare {
		res, err := eng.Run(ctx, engine.NewRareEventJob(engine.RareEventSpec{
			Model:       model,
			Versions:    *versions,
			Reps:        *reps,
			Seed:        *seed,
			TiltTarget:  0.3,
			Sparse:      *sparse,
			Adjudicator: *adjName,
		}))
		if err != nil {
			return err
		}
		if *progress {
			cliutil.ReportJob(os.Stderr, res)
		}
		if err := renderRare(out, res, *versions, *reps, adj); err != nil {
			return err
		}
		return tel.Flush()
	}

	res, err := eng.Run(ctx, engine.NewMonteCarloJob(engine.MonteCarloSpec{
		Model:       model,
		Versions:    *versions,
		Adjudicator: *adjName,
		Reps:        *reps,
		Workers:     *workers,
		Seed:        *seed,
		Correlation: *correlation,
		Boost:       *boost,
		Streaming:   *stream,
		Sparse:      *sparse,
	}))
	if err != nil {
		return err
	}
	if *progress {
		cliutil.ReportJob(os.Stderr, res)
	}
	// Only the independent process has a sparse sampler: a correlated
	// run develops rows whatever -sparse asks (montecarlo.Config.Sparse),
	// so the header names the row kernel for it.
	sparseKernel := res.MonteCarlo.Sparse && *correlation == 0
	if err := renderSimulation(out, res, *versions, *reps, adj, sparseKernel); err != nil {
		return err
	}
	return tel.Flush()
}

// renderSimulation prints the simulated PFD populations next to the
// model's analytic predictions: the k-of-N closed forms of the run's
// voting rule, plus the standard deviation (eq 2) and, for pairs, the
// eq (10) risk ratio that the paper derives for the plain 1-out-of-N rule.
// sparseKernel reports whether the run drew on the sparse kernel.
func renderSimulation(out io.Writer, eres *engine.Result, versions, reps int, adj system.Adjudicator, sparseKernel bool) error {
	fs, name, res := eres.FaultSet, eres.ModelName, eres.MonteCarlo
	if name == "" {
		name = "unnamed model"
	}
	mode := ""
	if res.Streaming {
		mode = ", streaming aggregation"
	}
	if sparseKernel {
		mode += ", sparse kernel"
	}
	fmt.Fprintf(out, "Model: %s — %d replications of %d versions (%s adjudication%s)\n\n",
		name, reps, versions, res.Adjudicator, mode)

	// The summary helpers serve both aggregation modes: exact sample
	// statistics for buffered runs, histogram-resolution quantiles for
	// streaming (-stream) runs.
	verStats, err := res.VersionSummary()
	if err != nil {
		return err
	}
	sysStats, err := res.SystemSummary()
	if err != nil {
		return err
	}
	tbl, err := report.NewTable("Simulated PFD populations",
		"quantity", "version", "system", "model (version)", "model (system)")
	if err != nil {
		return err
	}
	mu1, err := fs.MeanPFD(1)
	if err != nil {
		return err
	}
	sigma1, err := fs.SigmaPFD(1)
	if err != nil {
		return err
	}
	// The second moment has a closed form only for the plain 1-out-of-N
	// rule; for every other rule the sigma column stays n/a.
	paperRule := adj == system.OneOutOfN{}
	mu, err := system.MeanSystemPFD(fs, adj, versions)
	if err != nil {
		return err
	}
	modelMu2, modelSigma2 := report.Fmt(mu), "n/a"
	if paperRule {
		sg, err := fs.SigmaPFD(versions)
		if err != nil {
			return err
		}
		modelSigma2 = report.Fmt(sg)
	}
	rows := [][5]string{
		{"mean", report.Fmt(verStats.Mean), report.Fmt(sysStats.Mean), report.Fmt(mu1), modelMu2},
		{"std dev", report.Fmt(verStats.StdDev), report.Fmt(sysStats.StdDev), report.Fmt(sigma1), modelSigma2},
		{"median", report.Fmt(verStats.Median), report.Fmt(sysStats.Median), "", ""},
		{"95th pct", report.Fmt(verStats.Q95), report.Fmt(sysStats.Q95), "", ""},
		{"99th pct", report.Fmt(verStats.Q99), report.Fmt(sysStats.Q99), "", ""},
		{"max", report.Fmt(verStats.Max), report.Fmt(sysStats.Max), "", ""},
	}
	for _, row := range rows {
		if err := tbl.AddRow(row[0], row[1], row[2], row[3], row[4]); err != nil {
			return err
		}
	}
	if err := tbl.Render(out); err != nil {
		return err
	}
	fmt.Fprintln(out)

	events, err := report.NewTable("Fault-free outcomes", "event", "count", "frequency", "model")
	if err != nil {
		return err
	}
	noFault1, err := fs.PNoFault(1)
	if err != nil {
		return err
	}
	noFaultSys, err := system.PNoSystemFault(fs, adj, versions)
	if err != nil {
		return err
	}
	if err := events.AddRow("version fault-free", fmt.Sprintf("%d", res.VersionFaultFree),
		report.Fmt(float64(res.VersionFaultFree)/float64(reps)), report.Fmt(noFault1)); err != nil {
		return err
	}
	if err := events.AddRow("system fault-free", fmt.Sprintf("%d", res.SystemFaultFree),
		report.Fmt(float64(res.SystemFaultFree)/float64(reps)), report.Fmt(noFaultSys)); err != nil {
		return err
	}
	if err := events.Render(out); err != nil {
		return err
	}

	if ratio, err := res.RiskRatio(); err == nil {
		fmt.Fprintf(out, "\nEmpirical risk ratio P(N_sys>0)/P(N1>0) = %s", report.Fmt(ratio))
		if modelRatio, err := fs.RiskRatio(); err == nil && paperRule && versions == 2 {
			fmt.Fprintf(out, " (model eq (10): %s)", report.Fmt(modelRatio))
		}
		fmt.Fprintln(out)
	}
	return nil
}

// renderRare prints the importance-sampled estimate against the naive
// estimator and the closed form.
func renderRare(out io.Writer, eres *engine.Result, versions, reps int, adj system.Adjudicator) error {
	name, re := eres.ModelName, eres.RareEvent
	if name == "" {
		name = "unnamed model"
	}
	fmt.Fprintf(out, "Model: %s — rare-event estimation of P(any %s-defeating fault in %d versions) over %d replications\n\n",
		name, adj.Name(), versions, reps)
	tbl, err := report.NewTable("P(system carries any defeating fault)",
		"method", "estimate", "std err", "hit fraction")
	if err != nil {
		return err
	}
	rows := []struct {
		name string
		est  montecarlo.RareEventEstimate
	}{
		{name: "importance sampling", est: re.ImportanceSampling},
		{name: "naive Monte Carlo", est: re.Naive},
	}
	for _, row := range rows {
		if err := tbl.AddRow(row.name, report.Fmt(row.est.Probability),
			report.Fmt(row.est.StdErr), report.Fmt(row.est.HitFraction)); err != nil {
			return err
		}
	}
	if err := tbl.AddRow("closed form (eq 10 numerator)", report.Fmt(re.ClosedForm), "", ""); err != nil {
		return err
	}
	return tbl.Render(out)
}
