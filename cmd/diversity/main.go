// Command diversity computes the paper's assessor-facing reliability
// quantities for a fault-set model: PFD moments, the guaranteed gain
// bounds (formulas 4, 9, 11, 12), the no-common-fault risk ratio
// (equation 10), and confidence bounds under the Section-5 normal
// approximation — optionally with the exact PFD distribution quantiles.
//
// The computation runs as an analytic job on the unified execution engine
// (internal/engine); -no-cache disables the engine's result and model
// caches. The shared observability flags apply: -metrics-addr serves
// Prometheus exposition (/metrics), expvar, pprof, /debug/events and
// /debug/traces; -telemetry-json writes the final snapshot atomically.
//
// Usage:
//
//	diversity -model model.json [-k 1.0] [-confidence 0.99] [-scenario name] [-seed 1]
//
// Either -model (a JSON file, "-" for stdin) or -scenario
// (safety-grade | many-small-faults | commercial-grade) selects the fault
// set.
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
	"diversity/internal/faultmodel"
	"diversity/internal/report"
	"diversity/internal/system"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "diversity:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	flags := flag.NewFlagSet("diversity", flag.ContinueOnError)
	modelPath := flags.String("model", "", "path to a model JSON file (\"-\" for stdin)")
	scenarioName := flags.String("scenario", "", "named scenario: safety-grade | many-small-faults | commercial-grade | n-version-pool | million-faults")
	k := flags.Float64("k", 1.0, "sigma multiplier for the confidence bounds")
	confidence := flags.Float64("confidence", 0.99, "confidence level for the normal-approximation bound")
	seed := flags.Uint64("seed", 1, "seed for scenario generation")
	adjName := flags.String("adjudicator", "", "voting rule for the N-version pool table: 1oon | majority | KooN (e.g. 2oo3), optionally @pfd for an imperfect adjudication stage")
	versions := flags.Int("versions", 2, "pool size for the -adjudicator closed forms")
	mcReps := flags.Int("mc", 0, "cross-check the analytic moments by Monte-Carlo simulation with this many replications (0 = off)")
	stream := flags.Bool("stream", false, "run the -mc cross-check with constant-memory streaming aggregation")
	sparse := flags.Bool("sparse", false, "run the -mc cross-check with the geometric skip-sampling development kernel")
	progress := flags.Bool("progress", false, "report job IDs and -mc cross-check progress on stderr")
	noCache := flags.Bool("no-cache", false, "disable the engine's in-memory result and model caches")
	tf := cliutil.RegisterTelemetryFlags(flags)
	if err := flags.Parse(args); err != nil {
		return err
	}
	var adj system.Adjudicator
	if *adjName != "" {
		parsed, err := system.ParseAdjudicator(*adjName)
		if err != nil {
			return err
		}
		if err := parsed.Validate(*versions); err != nil {
			return err
		}
		adj = parsed
	}
	if *k < 0 {
		return fmt.Errorf("sigma multiplier k=%v must be non-negative", *k)
	}
	if *mcReps < 0 {
		return fmt.Errorf("cross-check replication count %d must not be negative", *mcReps)
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
	res, err := eng.Run(ctx, engine.NewAnalyticJob(engine.AnalyticSpec{
		Model:      model,
		K:          *k,
		Confidence: *confidence,
	}))
	if err != nil {
		return err
	}
	if *progress {
		cliutil.ReportJob(os.Stderr, res)
	}

	fs, name, ar := res.FaultSet, res.ModelName, res.Analytic
	if name == "" {
		name = "unnamed model"
	}
	rep := ar.Gain
	fmt.Fprintf(out, "Model: %s (%d potential faults, pmax = %s, sum q = %s)\n\n",
		name, fs.N(), report.Fmt(fs.PMax()), report.Fmt(fs.SumQ()))

	tbl, err := report.NewTable("PFD moments (eqs 1-2)", "quantity", "1 version", "1-out-of-2")
	if err != nil {
		return err
	}
	if err := tbl.AddRow("mean PFD", report.Fmt(rep.Mu1), report.Fmt(rep.Mu2)); err != nil {
		return err
	}
	if err := tbl.AddRow("std dev", report.Fmt(rep.Sigma1), report.Fmt(rep.Sigma2)); err != nil {
		return err
	}
	if err := tbl.AddRow(fmt.Sprintf("bound mu+%.2g*sigma", *k), report.Fmt(rep.Bound1), report.Fmt(rep.Bound2)); err != nil {
		return err
	}
	if err := tbl.Render(out); err != nil {
		return err
	}
	fmt.Fprintln(out)

	bounds, err := report.NewTable("Assessor bounds and gains", "quantity", "value", "paper result")
	if err != nil {
		return err
	}
	gainRows := []struct{ name, value, source string }{
		{name: "guaranteed mean gain (1/pmax)", value: report.Fmt(1 / fs.PMax()), source: "eq (4)"},
		{name: "sigma bound factor sqrt(pmax(1+pmax))", value: report.Fmt(ar.SigmaBoundFactor), source: "eq (9)"},
		{name: "two-version bound from moments", value: report.Fmt(rep.Bound11), source: "formula (11)"},
		{name: "two-version bound from one-version bound", value: report.Fmt(rep.Bound12), source: "formula (12)"},
		{name: "realised bound ratio", value: report.Fmt(rep.BoundRatio), source: "Section 5.2"},
		{name: "realised bound difference", value: report.Fmt(rep.BoundDiff), source: "Section 5.2"},
	}
	if ar.HasRiskRatio {
		gainRows = append(gainRows, struct{ name, value, source string }{
			name: "risk ratio P(N2>0)/P(N1>0)", value: report.Fmt(ar.RiskRatio), source: "eq (10)",
		})
	}
	gainRows = append(gainRows, struct{ name, value, source string }{
		name: "success ratio P(N2=0)/P(N1=0)", value: report.Fmt(ar.SuccessRatio), source: "footnote 5",
	})
	for _, row := range gainRows {
		if err := bounds.AddRow(row.name, row.value, row.source); err != nil {
			return err
		}
	}
	if err := bounds.Render(out); err != nil {
		return err
	}
	fmt.Fprintln(out)

	conf, err := report.NewTable(
		fmt.Sprintf("Bounds at %.4g%% confidence (normal approximation)", *confidence*100),
		"system", "bound", "exact-distribution quantile")
	if err != nil {
		return err
	}
	for _, cb := range ar.Bounds {
		exactText := "n/a (too many faults)"
		if cb.HasExact {
			exactText = report.Fmt(cb.ExactQuantile)
		}
		label := "1 version"
		if cb.Versions == 2 {
			label = "1-out-of-2"
		}
		if err := conf.AddRow(label, report.Fmt(cb.Bound), exactText); err != nil {
			return err
		}
	}
	if err := conf.Render(out); err != nil {
		return err
	}

	if adj != nil {
		if err := renderPool(out, fs, adj, *versions, rep.Mu1); err != nil {
			return err
		}
	}

	if *mcReps > 0 {
		if err := renderCrossCheck(ctx, out, eng, model, rep.Mu1, rep.Sigma1, rep.Mu2, rep.Sigma2, *mcReps, *seed, *stream, *sparse, *progress); err != nil {
			return err
		}
	}
	return tel.Flush()
}

// renderPool prints the generalised k-of-N closed forms for the requested
// adjudicated pool next to the single-version baseline: the adjudicated
// mean system PFD (the k-of-N extension of equation (1)) and the
// probability that the pool carries at least one defeating fault. An
// imperfect adjudication stage (an "@pfd" rule) is composed onto both the
// pool and the single version, so the gain is the total one the stage
// leaves.
func renderPool(out io.Writer, fs *faultmodel.FaultSet, adj system.Adjudicator, versions int, mu1 float64) error {
	mu1 = system.ApplyStagePFD(adj, mu1)
	mean, err := system.MeanSystemPFD(fs, adj, versions)
	if err != nil {
		return err
	}
	pAny, err := system.PAnySystemFault(fs, adj, versions)
	if err != nil {
		return err
	}
	pAny1, err := fs.PAnyFault(1)
	if err != nil {
		return err
	}
	fmt.Fprintln(out)
	tbl, err := report.NewTable(
		fmt.Sprintf("N-version pool closed forms (%d versions, %s adjudication)", versions, adj.Name()),
		"quantity", "pool", "1 version")
	if err != nil {
		return err
	}
	if err := tbl.AddRow("mean system PFD (k-of-N eq 1)", report.Fmt(mean), report.Fmt(mu1)); err != nil {
		return err
	}
	if err := tbl.AddRow("P(any defeating fault)", report.Fmt(pAny), report.Fmt(pAny1)); err != nil {
		return err
	}
	if mean > 0 {
		if err := tbl.AddRow("mean gain vs 1 version", report.Fmt(mu1/mean), ""); err != nil {
			return err
		}
	}
	return tbl.Render(out)
}

// renderCrossCheck simulates the 1-out-of-2 system and prints the sampled
// version and system moments next to the analytic equations (1)-(2) the
// report above is built on — an end-to-end consistency check an assessor
// can run on their own model. With streaming aggregation the simulation
// runs at constant memory regardless of the replication count.
func renderCrossCheck(ctx context.Context, out io.Writer, eng *engine.Engine, model engine.ModelSpec, mu1, sigma1, mu2, sigma2 float64, reps int, seed uint64, stream, sparse, progress bool) error {
	res, err := eng.Run(ctx, engine.NewMonteCarloJob(engine.MonteCarloSpec{
		Model:     model,
		Versions:  2,
		Reps:      reps,
		Seed:      seed,
		Streaming: stream,
		Sparse:    sparse,
	}))
	if err != nil {
		return err
	}
	if progress {
		cliutil.ReportJob(os.Stderr, res)
	}
	vsum, err := res.MonteCarlo.VersionSummary()
	if err != nil {
		return err
	}
	ssum, err := res.MonteCarlo.SystemSummary()
	if err != nil {
		return err
	}
	mode := "buffered"
	if stream {
		mode = "streaming"
	}
	if sparse {
		mode += ", sparse kernel"
	}
	fmt.Fprintln(out)
	tbl, err := report.NewTable(
		fmt.Sprintf("Monte-Carlo cross-check (%d replications, %s aggregation)", reps, mode),
		"quantity", "model", "simulated")
	if err != nil {
		return err
	}
	rows := []struct {
		name  string
		model float64
		sim   float64
	}{
		{"mean PFD, 1 version", mu1, vsum.Mean},
		{"std dev, 1 version", sigma1, vsum.StdDev},
		{"mean PFD, 1-out-of-2", mu2, ssum.Mean},
		{"std dev, 1-out-of-2", sigma2, ssum.StdDev},
	}
	for _, row := range rows {
		if err := tbl.AddRow(row.name, report.Fmt(row.model), report.Fmt(row.sim)); err != nil {
			return err
		}
	}
	return tbl.Render(out)
}
