// Command experiments regenerates the paper's tables and figures. Each
// experiment pairs the paper's analytic results with an independent
// simulation and reports paper-vs-measured checks; the process exits
// non-zero if any check fails.
//
// The suite runs as one job on the unified execution engine
// (internal/engine): Ctrl-C cancels between and inside experiments,
// -progress reports the experiment stage on stderr, and repeated
// identical jobs within one process are served from the engine's result
// cache (disable it and the model cache with -no-cache). The shared
// observability flags apply: -metrics-addr serves Prometheus exposition
// (/metrics), expvar, pprof, /debug/events and /debug/traces;
// -telemetry-json writes the final snapshot atomically.
//
// Usage:
//
//	experiments                 # run the full suite
//	experiments -id E07,E08     # run selected experiments
//	experiments -quick          # reduced replication counts
//	experiments -list           # list experiment IDs and titles
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"diversity/internal/cliutil"
	"diversity/internal/engine"
	"diversity/internal/experiments"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code, err := run(ctx, os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func run(ctx context.Context, args []string, out io.Writer) (int, error) {
	flags := flag.NewFlagSet("experiments", flag.ContinueOnError)
	ids := flags.String("id", "", "comma-separated experiment IDs (default: all)")
	quick := flags.Bool("quick", false, "reduced replication counts")
	stream := flags.Bool("stream", false, "constant-memory streaming aggregation for moment/counter experiments")
	sparse := flags.Bool("sparse", false, "geometric skip-sampling development kernel for the Monte-Carlo passes")
	batch := flags.Int("batch", 0, "batched replication kernel tile width for the Monte-Carlo passes (0 or 1 = off; ignored with -sparse)")
	seed := flags.Uint64("seed", 1, "random seed")
	versions := flags.Int("versions", 0, "extra adjudicated pool size for the arrangement experiments (set together with -adjudicator)")
	adjName := flags.String("adjudicator", "", "extra adjudicated arrangement to evaluate (1oon | majority | KooN); set together with -versions")
	list := flags.Bool("list", false, "list experiments and exit")
	markdown := flags.Bool("markdown", false, "emit a Markdown report (EXPERIMENTS.md format)")
	progress := flags.Bool("progress", false, "report the running experiment on stderr")
	noCache := flags.Bool("no-cache", false, "disable the engine's in-memory result and model caches")
	tf := cliutil.RegisterTelemetryFlags(flags)
	if err := flags.Parse(args); err != nil {
		return 1, err
	}
	tel, err := tf.Open(os.Stderr)
	if err != nil {
		return 1, err
	}
	defer tel.Shutdown()
	opts := tel.EngineOptions(engine.Options{DisableCache: *noCache})
	if *progress {
		opts.Progress = cliutil.ProgressPrinter(os.Stderr)
	}
	eng := engine.New(opts)
	if *list {
		res, err := eng.Run(ctx, engine.NewExperimentsJob(engine.ExperimentsSpec{Seed: *seed, Quick: true}))
		if err != nil {
			return 1, err
		}
		for _, exp := range res.Experiments {
			fmt.Fprintf(out, "%s  %s\n", exp.ID, exp.Title)
		}
		return 0, tel.Flush()
	}

	var selected []string
	if *ids != "" {
		for _, id := range strings.Split(*ids, ",") {
			selected = append(selected, strings.TrimSpace(id))
		}
	}

	cfg := experiments.Config{Seed: *seed, Quick: *quick, Streaming: *stream, Sparse: *sparse, BatchWidth: *batch}
	res, err := eng.Run(ctx, engine.NewExperimentsJob(engine.ExperimentsSpec{
		IDs:         selected,
		Seed:        *seed,
		Quick:       *quick,
		Streaming:   *stream,
		Sparse:      *sparse,
		BatchWidth:  *batch,
		Versions:    *versions,
		Adjudicator: *adjName,
	}))
	if err != nil {
		return 1, err
	}
	if *progress {
		cliutil.ReportJob(os.Stderr, res)
	}
	if err := tel.Flush(); err != nil {
		return 1, err
	}
	failures := 0
	if *markdown {
		writeMarkdownHeader(out, cfg)
	}
	for _, exp := range res.Experiments {
		if *markdown {
			writeMarkdownResult(out, exp)
		} else {
			fmt.Fprintf(out, "================================================================\n")
			fmt.Fprintf(out, "%s — %s\n", exp.ID, exp.Title)
			fmt.Fprintf(out, "================================================================\n\n")
			fmt.Fprintln(out, exp.Text)
			fmt.Fprintln(out, exp.Summary())
		}
		if !exp.Passed() {
			failures++
		}
	}
	if *markdown {
		writeMarkdownFooter(out)
		if failures > 0 {
			fmt.Fprintf(out, "\n**%d experiment(s) had failing checks.**\n", failures)
			return 2, nil
		}
		return 0, nil
	}
	if failures > 0 {
		fmt.Fprintf(out, "%d experiment(s) had failing checks\n", failures)
		return 2, nil
	}
	fmt.Fprintf(out, "all %d experiment(s) passed\n", len(res.Experiments))
	return 0, nil
}

func writeMarkdownHeader(out io.Writer, cfg experiments.Config) {
	fmt.Fprintln(out, "# EXPERIMENTS — paper vs measured")
	fmt.Fprintln(out)
	fmt.Fprintln(out, "Generated by `go run ./cmd/experiments -markdown`. Every table, figure")
	fmt.Fprintln(out, "and numbered result of Popov & Strigini (DSN 2001) is regenerated by an")
	fmt.Fprintln(out, "experiment below; each experiment pairs the paper's analytic claim with")
	fmt.Fprintln(out, "an independent measurement (Monte-Carlo simulation of the fault creation")
	fmt.Fprintln(out, "process, geometric demand-space simulation, or exact distribution")
	fmt.Fprintln(out, "computation). The experiment index — workloads, parameters and the")
	fmt.Fprintln(out, "modules implementing each piece — is in DESIGN.md.")
	fmt.Fprintln(out)
	mode := "full"
	if cfg.Quick {
		mode = "quick"
	}
	fmt.Fprintf(out, "Run configuration: seed %d, %s replication counts.\n", cfg.Seed, mode)
}

func writeMarkdownFooter(out io.Writer) {
	fmt.Fprintln(out, `
## Deviations and reproduction notes

1. **Appendix A stationary point (E05).** The paper's appendix prints a
   root of the two-fault stationary equation claimed to exceed the other
   fault's probability (p1z > p2). Direct derivation gives the quadratic
   (1-p2²)p1² + 2p2(1+p2)p1 - p2² = 0 with admissible root
   p1z = p2(sqrt(2(1+p2)) - (1+p2))/(1-p2²), which always lies BELOW p2 —
   and brute-force minimisation of the printed ratio confirms the interior
   minimum at exactly this value for every tested p2 (E05 table). The
   paper's qualitative claims — the derivative changes sign, so improving
   a single fault class can reduce the gain from diversity — reproduce
   fully; only the printed root's location (possibly garbled in the
   available scan, whose appendix formulas are OCR-damaged) disagrees.

2. **Section 5.2 bound-difference remark (E10).** The paper states,
   without proof, that the gain measured as the DIFFERENCE between upper
   bounds (µ1+kσ1)-(µ2+kσ2) "improves with any increase in any of the
   p_i". This holds throughout the small-p regime, but a counterexample
   exists at larger p (raising p=0.30 by 0.05 in the E10 base set lowers
   the difference): the two-version sigma term, normalised by its much
   smaller sigma, can outgrow the one-version side. The remark should be
   read as a small-p statement.

3. **Knight–Leveson data (E15).** The original 27-version data are not
   public. The replica is a synthetic population calibrated to the
   published summary statistics (45 catalogued faults, mean version
   failure probability of order 7e-4, 6 of 27 versions failure-free);
   the paper uses the experiment only qualitatively, and exactly that
   qualitative comparison is what the replica reproduces. At n=27 the
   one-sample KS test has little power, so non-normality is asserted
   jointly from the KS rejections (well above the false-positive rate),
   the point mass at PFD = 0, and the sample skewness.

4. **Monte-Carlo scale.** All simulation-backed checks run at 10^5-10^6
   replications in full mode (this file) and about a tenth of that in
   -quick mode (used by tests and benches); checks are calibrated to pass
   in both.`)
}

func writeMarkdownResult(out io.Writer, res *experiments.Result) {
	fmt.Fprintf(out, "\n## %s — %s\n\n", res.ID, res.Title)
	for _, c := range res.Checks {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
		}
		fmt.Fprintf(out, "- **[%s] %s**\n  - paper: %s\n  - measured: %s\n", status, c.Name, c.Paper, c.Measured)
	}
	fmt.Fprintf(out, "\n```text\n%s```\n", res.Text)
}
