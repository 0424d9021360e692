package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"diversity/internal/devsim"
	"diversity/internal/faultmodel"
	"diversity/internal/montecarlo"
	"diversity/internal/process"
	"diversity/internal/randx"
	"diversity/internal/report"
	"diversity/internal/scenario"
	"diversity/internal/stats"
)

var _ = register("E04", runE04NoCommonFault)

// runE04NoCommonFault regenerates Section 4.1 (equation 10): the ratio
// P(N2>0)/P(N1>0) — analytic versus Monte-Carlo — plus footnote 5's
// success-ratio identity Π(1+p_i).
func runE04NoCommonFault(ctx context.Context, cfg Config) (*Result, error) {
	res := &Result{
		ID:    "E04",
		Title: "Section 4.1 eq (10): probability of no common fault",
	}
	tbl, err := report.NewTable(
		"Risk ratio P(N2>0)/P(N1>0), model vs Monte Carlo",
		"scenario", "P(N1>0)", "P(N2>0)", "ratio model", "ratio MC", "MC 95% CI", "success ratio Π(1+p)")
	if err != nil {
		return nil, err
	}
	scenarios, err := scenario.All(cfg.Seed)
	if err != nil {
		return nil, err
	}
	reps := cfg.reps(300000)
	for _, sc := range scenarios {
		fs := sc.FaultSet
		any1, err := fs.PAnyFault(1)
		if err != nil {
			return nil, err
		}
		any2, err := fs.PAnyFault(2)
		if err != nil {
			return nil, err
		}
		ratioModel, err := fs.RiskRatio()
		if err != nil {
			return nil, err
		}
		mc, err := montecarlo.RunContext(ctx, montecarlo.Config{
			Process:   devsim.NewIndependentProcess(fs),
			Versions:  2,
			Reps:      reps,
			Seed:      cfg.Seed + 17,
			Streaming: cfg.Streaming,
			Sparse:    cfg.Sparse,
		})
		if err != nil {
			return nil, err
		}
		// Wilson interval on P(N2>0); the ratio's denominator is well
		// estimated in every scenario here.
		lo2, hi2, err := stats.WilsonInterval(reps-mc.SystemFaultFree, reps, 0.95)
		if err != nil {
			return nil, err
		}
		mcAny1 := mc.PVersionAnyFault()
		var ratioMC float64
		var ciText string
		if mcAny1 > 0 {
			ratioMC = mc.PSystemAnyFault() / mcAny1
			ciText = fmt.Sprintf("[%s, %s]", report.Fmt(lo2/mcAny1), report.Fmt(hi2/mcAny1))
		} else {
			ratioMC = math.NaN()
			ciText = "n/a"
		}
		if err := tbl.AddRow(sc.Name, report.Fmt(any1), report.Fmt(any2),
			report.Fmt(ratioModel), report.Fmt(ratioMC), ciText,
			report.Fmt(fs.SuccessRatio())); err != nil {
			return nil, err
		}
		pass := ratioModel <= 1+1e-12
		if !math.IsNaN(ratioMC) && mcAny1 > 0.01 {
			// Require the model ratio inside the MC interval (with slack
			// for the denominator's own noise).
			pass = pass && ratioModel >= lo2/mcAny1*0.9-0.01 && ratioModel <= hi2/mcAny1*1.1+0.01
		}
		res.Checks = append(res.Checks, Check{
			Name:     fmt.Sprintf("eq (10) (%s)", sc.Name),
			Paper:    "P(N2>0)/P(N1>0) <= 1, computable from the p_i",
			Measured: fmt.Sprintf("model %s vs MC %s over %d replications", report.Fmt(ratioModel), report.Fmt(ratioMC), reps),
			Pass:     pass,
		})
	}
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		return nil, err
	}
	res.Text = b.String()
	return res, nil
}

var _ = register("E05", runE05SingleFaultImprovement)

// runE05SingleFaultImprovement regenerates Section 4.2.1 and Appendix A:
// the risk ratio as a function of a single fault's presence probability is
// non-monotone, with the stationary point given in closed form; improving
// an already-unlikely fault class further REDUCES the gain from diversity.
func runE05SingleFaultImprovement(ctx context.Context, cfg Config) (*Result, error) {
	res := &Result{
		ID:    "E05",
		Title: "Section 4.2.1 / Appendix A: single-fault process improvement",
	}
	var b strings.Builder

	tbl, err := report.NewTable(
		"Two-fault stationary points (Appendix A)",
		"p2", "p1z closed form", "p1z numeric argmin", "deriv sign below", "deriv sign above")
	if err != nil {
		return nil, err
	}
	allPass := true
	for _, p2 := range []float64{0.1, 0.3, 0.5} {
		p1z, err := faultmodel.TwoFaultStationaryP1(p2)
		if err != nil {
			return nil, err
		}
		// Numeric argmin over a fine grid.
		best, bestRatio := 0.0, math.Inf(1)
		for p1 := 1e-4; p1 < 0.9999; p1 += 1e-4 {
			fs, err := faultmodel.New([]faultmodel.Fault{{P: p1, Q: 0.1}, {P: p2, Q: 0.1}})
			if err != nil {
				return nil, err
			}
			ratio, err := fs.RiskRatio()
			if err != nil {
				return nil, err
			}
			if ratio < bestRatio {
				best, bestRatio = p1, ratio
			}
		}
		below, err := derivAt(p1z*0.5, p2)
		if err != nil {
			return nil, err
		}
		above, err := derivAt(math.Min(p1z*2, 0.99), p2)
		if err != nil {
			return nil, err
		}
		pass := math.Abs(best-p1z) < 5e-4 && below < 0 && above > 0
		allPass = allPass && pass
		if err := tbl.AddRow(report.Fmt(p2), report.Fmt(p1z), report.Fmt(best),
			signLabel(below), signLabel(above)); err != nil {
			return nil, err
		}
	}
	if err := tbl.Render(&b); err != nil {
		return nil, err
	}
	res.Checks = append(res.Checks, Check{
		Name:     "Appendix A stationary point",
		Paper:    "the derivative of the ratio wrt a single p can be zero, with sign reversal (trend reversal in the gain)",
		Measured: "closed-form stationary point matches numeric argmin; derivative negative below it, positive above",
		Pass:     allPass,
	})
	res.Checks = append(res.Checks, Check{
		Name:     "reproduction note on the printed root",
		Paper:    "the available paper text prints a root claimed to be > p2",
		Measured: "verified stationary point lies BELOW p2 at every tested p2; the qualitative sign-reversal claim is what reproduces (see EXPERIMENTS.md)",
		Pass:     true,
	})

	// Figure: risk ratio vs p1 for p2 = 0.1, showing the interior minimum.
	const p2 = 0.1
	var xs, ys []float64
	for p1 := 0.002; p1 <= 0.6; p1 *= 1.12 {
		fs, err := faultmodel.New([]faultmodel.Fault{{P: p1, Q: 0.1}, {P: p2, Q: 0.1}})
		if err != nil {
			return nil, err
		}
		ratio, err := fs.RiskRatio()
		if err != nil {
			return nil, err
		}
		xs = append(xs, math.Log10(p1))
		ys = append(ys, ratio)
	}
	b.WriteByte('\n')
	if err := report.PlotSeries(&b, "Risk ratio vs log10(p1) at p2=0.1 (interior minimum = trend reversal)",
		[]report.Series{{Label: "P(N2>0)/P(N1>0)", Xs: xs, Ys: ys}}, 60, 14); err != nil {
		return nil, err
	}

	res.Text = b.String()
	return res, nil
}

func derivAt(p1, p2 float64) (float64, error) {
	fs, err := faultmodel.New([]faultmodel.Fault{{P: p1, Q: 0.1}, {P: p2, Q: 0.1}})
	if err != nil {
		return 0, err
	}
	return fs.RiskRatioDeriv(0)
}

func signLabel(v float64) string {
	switch {
	case v > 0:
		return "positive"
	case v < 0:
		return "negative"
	default:
		return "zero"
	}
}

var _ = register("E06", runE06ProportionalImprovement)

// runE06ProportionalImprovement regenerates Section 4.2.2 and Appendix B:
// under proportional scaling p_i = k·b_i the risk ratio is monotone
// increasing in k — proportional process improvement always increases the
// gain from diversity — verified analytically for random base vectors and
// by Monte Carlo along one trajectory.
func runE06ProportionalImprovement(ctx context.Context, cfg Config) (*Result, error) {
	res := &Result{
		ID:    "E06",
		Title: "Section 4.2.2 / Appendix B: proportional process improvement",
	}
	r := randx.NewStream(cfg.Seed + 23)

	// Analytic sweep over random base vectors.
	trials := cfg.reps(2000)
	violations := 0
	for trial := 0; trial < trials; trial++ {
		n := 2 + r.IntN(10)
		faults := make([]faultmodel.Fault, n)
		for i := range faults {
			faults[i] = faultmodel.Fault{P: r.Float64(), Q: r.Float64() / float64(n)}
		}
		base, err := faultmodel.New(faults)
		if err != nil {
			return nil, err
		}
		if base.PMax() == 0 {
			continue
		}
		prev := -1.0
		for _, k := range []float64{0.1, 0.3, 0.5, 0.7, 0.9, 1.0} {
			scaled, err := base.Scaled(k)
			if err != nil {
				return nil, err
			}
			ratio, err := scaled.RiskRatio()
			if err != nil {
				return nil, err
			}
			if ratio < prev-1e-12 {
				violations++
				break
			}
			prev = ratio
		}
	}
	res.Checks = append(res.Checks, Check{
		Name:     "Appendix B monotonicity (analytic sweep)",
		Paper:    "d/dk of the ratio is non-negative for any base rates and any k",
		Measured: fmt.Sprintf("%d monotonicity violations in %d random base vectors", violations, trials),
		Pass:     violations == 0,
	})

	// One trajectory rendered as a table, with an MC cross-check.
	sc, err := scenario.CommercialGrade(cfg.Seed)
	if err != nil {
		return nil, err
	}
	amounts := []float64{0, 0.25, 0.5, 0.75, 0.9}
	points, err := process.Trace(sc.FaultSet, process.Proportional{}, amounts, 1)
	if err != nil {
		return nil, err
	}
	tbl, err := report.NewTable(
		"Proportional improvement trajectory (commercial-grade scenario)",
		"improvement", "k", "P(N1>0)", "P(N2>0)", "ratio (model)", "ratio (MC)")
	if err != nil {
		return nil, err
	}
	reps := cfg.reps(100000)
	monotone := true
	prevRatio := -1.0
	for _, pt := range points {
		improved, err := (process.Proportional{}).Apply(sc.FaultSet, pt.Amount)
		if err != nil {
			return nil, err
		}
		mc, err := montecarlo.RunContext(ctx, montecarlo.Config{
			Process:  devsim.NewIndependentProcess(improved),
			Versions: 2,
			Reps:     reps,
			Seed:     cfg.Seed + 31,
		})
		if err != nil {
			return nil, err
		}
		ratioMC, err := mc.RiskRatio()
		mcText := "n/a"
		if err == nil {
			mcText = report.Fmt(ratioMC)
		}
		if err := tbl.AddRow(report.Fmt(pt.Amount), report.Fmt(1-pt.Amount),
			report.Fmt(pt.PAnyFault1), report.Fmt(pt.PAnyFault2),
			report.Fmt(pt.RiskRatio), mcText); err != nil {
			return nil, err
		}
		if !math.IsNaN(pt.RiskRatio) {
			if prevRatio >= 0 && pt.RiskRatio > prevRatio+1e-12 {
				monotone = false
			}
			prevRatio = pt.RiskRatio
		}
	}
	res.Checks = append(res.Checks, Check{
		Name:     "trajectory monotone",
		Paper:    "the gain from diversity always increases with proportional process improvement",
		Measured: "risk ratio non-increasing along the improvement trajectory",
		Pass:     monotone,
	})
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		return nil, err
	}
	res.Text = b.String()
	return res, nil
}
