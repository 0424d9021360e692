package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"diversity/internal/devsim"
	"diversity/internal/faultmodel"
	"diversity/internal/montecarlo"
	"diversity/internal/report"
	"diversity/internal/scenario"
	"diversity/internal/stats"
)

var _ = register("E01", runE01Moments)

// runE01Moments regenerates the Section-3 moment formulas (equations 1–2):
// analytic µ1, σ1, µ2, σ2 against Monte-Carlo sample moments over version
// populations, for each named scenario.
func runE01Moments(ctx context.Context, cfg Config) (*Result, error) {
	res := &Result{
		ID:    "E01",
		Title: "Section 3 eqs (1)-(2): PFD moments, model vs Monte Carlo",
	}
	scenarios, err := scenario.All(cfg.Seed)
	if err != nil {
		return nil, err
	}
	tbl, err := report.NewTable(
		"PFD moments (model | simulated)",
		"scenario", "mu1 model", "mu1 MC", "sigma1 model", "sigma1 MC",
		"mu2 model", "mu2 MC", "sigma2 model", "sigma2 MC")
	if err != nil {
		return nil, err
	}
	reps := cfg.reps(200000)
	for _, sc := range scenarios {
		fs := sc.FaultSet
		mc, err := montecarlo.RunContext(ctx, montecarlo.Config{
			Process:   devsim.NewIndependentProcess(fs),
			Versions:  2,
			Reps:      reps,
			Seed:      cfg.Seed + 1,
			Streaming: cfg.Streaming,
			Sparse:    cfg.Sparse,
		})
		if err != nil {
			return nil, err
		}
		vsum, err := mc.VersionSummary()
		if err != nil {
			return nil, err
		}
		ssum, err := mc.SystemSummary()
		if err != nil {
			return nil, err
		}
		mu1, sigma1, ok1, err := momentsAgree(fs, 1, vsum)
		if err != nil {
			return nil, err
		}
		mu2, sigma2, ok2, err := momentsAgree(fs, 2, ssum)
		if err != nil {
			return nil, err
		}
		if err := tbl.AddRow(sc.Name,
			report.Fmt(mu1), report.Fmt(vsum.Mean), report.Fmt(sigma1), report.Fmt(vsum.StdDev),
			report.Fmt(mu2), report.Fmt(ssum.Mean), report.Fmt(sigma2), report.Fmt(ssum.StdDev)); err != nil {
			return nil, err
		}
		res.Checks = append(res.Checks, Check{
			Name:  fmt.Sprintf("moments agree (%s)", sc.Name),
			Paper: "eqs (1)-(2) give the exact mean and variance of the PFD",
			Measured: fmt.Sprintf("means and sigmas within %g SE (normal-approximation false-alarm rate %.1e per comparison) over %d replications",
				momentZBound, 2*stats.Normal{Sigma: 1}.Survival(momentZBound), reps),
			Pass: ok1 && ok2,
		})
	}
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		return nil, err
	}
	res.Text = b.String()
	return res, nil
}

// momentZBound is E01's acceptance bound on every |z| score.
const momentZBound = 5.0

// momentsAgree compares a simulated population with the model's PFD of
// m versions. It returns the model's mean and standard deviation (eqs
// (1)-(2)) and whether the sample's mean and standard deviation are each
// within momentZBound standard errors of them. The standard errors are
// the ones the model implies for n replications: σ/√n for the mean, and
// SE(s) ≈ (σ/2)·√((g2+2)/n) for the standard deviation, the delta-method
// error of s with g2 the model's excess kurtosis. Taking σ and g2 from
// the model rather than the sample keeps the test calibrated on
// rare-fault populations, where a quick run often holds no faulty system
// and so has s = 0 and no kurtosis to plug in.
func momentsAgree(fs *faultmodel.FaultSet, m int, sum stats.Summary) (mu, sigma float64, ok bool, err error) {
	if mu, err = fs.MeanPFD(m); err != nil {
		return
	}
	if sigma, err = fs.SigmaPFD(m); err != nil {
		return
	}
	kurt, err := fs.KurtosisPFD(m)
	if err != nil {
		return
	}
	n := float64(sum.N)
	// The 1e-12 floor lets a degenerate population (se = 0) pass on an
	// exact match only.
	within := func(diff, se float64) bool { return math.Abs(diff) <= momentZBound*se+1e-12 }
	ok = within(sum.Mean-mu, sigma/math.Sqrt(n)) && within(sum.StdDev-sigma, sigma/2*math.Sqrt((kurt+2)/n))
	return
}

func relErr(want, got float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(want-got) / math.Abs(want)
}

var _ = register("E02", runE02MeanBound)

// runE02MeanBound regenerates the Section-3.1.1 result (equation 4):
// µ2 <= pmax·µ1 — the assessor's guaranteed mean-gain bound — across
// pmax regimes, reporting how tight the bound is.
func runE02MeanBound(ctx context.Context, cfg Config) (*Result, error) {
	res := &Result{
		ID:    "E02",
		Title: "Section 3.1.1 eq (4): guaranteed mean-PFD bound mu2 <= pmax*mu1",
	}
	tbl, err := report.NewTable(
		"Mean gain bound across pmax regimes",
		"pmax", "mu1", "mu2", "mu2/mu1 (actual)", "bound (pmax)", "bound holds")
	if err != nil {
		return nil, err
	}
	for i, pmax := range []float64{0.5, 0.1, 0.01} {
		fs, err := boundedPmaxSet(cfg.Seed+uint64(i), 30, pmax)
		if err != nil {
			return nil, err
		}
		mu1, err := fs.MeanPFD(1)
		if err != nil {
			return nil, err
		}
		mu2, err := fs.MeanPFD(2)
		if err != nil {
			return nil, err
		}
		actual := mu2 / mu1
		holds := mu2 <= pmax*mu1+1e-15
		if err := tbl.AddRow(report.Fmt(pmax), report.Fmt(mu1), report.Fmt(mu2),
			report.Fmt(actual), report.Fmt(pmax), fmt.Sprintf("%v", holds)); err != nil {
			return nil, err
		}
		res.Checks = append(res.Checks, Check{
			Name:     fmt.Sprintf("eq (4) at pmax=%v", pmax),
			Paper:    "a two-version system has at least 1/pmax times better mean PFD",
			Measured: fmt.Sprintf("mu2/mu1 = %s <= pmax = %s", report.Fmt(actual), report.Fmt(pmax)),
			Pass:     holds,
		})
	}
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		return nil, err
	}
	res.Text = b.String()
	return res, nil
}

// boundedPmaxSet builds a random fault set whose largest presence
// probability is exactly pmax.
func boundedPmaxSet(seed uint64, n int, pmax float64) (*faultmodel.FaultSet, error) {
	fs, err := scenario.Generate(scenario.GeneratorConfig{
		N: n, PAlpha: 2, PBeta: 4, PScale: pmax,
		QLogMu: math.Log(1e-3), QLogSigma: 1, SumQ: 0.2,
	}, seed)
	if err != nil {
		return nil, err
	}
	// Pin the maximum exactly at pmax so the bound is evaluated at its
	// nominal parameter.
	return fs.WithP(0, pmax)
}

var _ = register("E03", runE03SigmaBound)

// runE03SigmaBound regenerates Section 3.1.2 (equations 5–9): the
// standard-deviation ordering σ2 <= σ1 under the golden-ratio threshold
// and the bound factor sqrt(pmax(1+pmax)).
func runE03SigmaBound(ctx context.Context, cfg Config) (*Result, error) {
	res := &Result{
		ID:    "E03",
		Title: "Section 3.1.2 eqs (5)-(9): sigma ordering and bound factor",
	}
	tbl, err := report.NewTable(
		"Sigma bound across pmax regimes",
		"pmax", "sigma1", "sigma2", "sigma2/sigma1", "bound factor", "bound holds")
	if err != nil {
		return nil, err
	}
	allHold := true
	for i, pmax := range []float64{0.5, 0.3, 0.1, 0.05, 0.01} {
		fs, err := boundedPmaxSet(cfg.Seed+100+uint64(i), 30, pmax)
		if err != nil {
			return nil, err
		}
		s1, err := fs.SigmaPFD(1)
		if err != nil {
			return nil, err
		}
		s2, err := fs.SigmaPFD(2)
		if err != nil {
			return nil, err
		}
		factor, err := faultmodel.SigmaBoundFactor(pmax)
		if err != nil {
			return nil, err
		}
		holds := s2 <= factor*s1+1e-15
		allHold = allHold && holds
		if err := tbl.AddRow(report.Fmt(pmax), report.Fmt(s1), report.Fmt(s2),
			report.Fmt(s2/s1), report.Fmt(factor), fmt.Sprintf("%v", holds)); err != nil {
			return nil, err
		}
	}
	res.Checks = append(res.Checks, Check{
		Name:     "eq (9) sigma bound",
		Paper:    "sigma2 < sqrt(pmax(1+pmax)) * sigma1 when all p_i are small",
		Measured: "bound held at every pmax in the sweep",
		Pass:     allHold,
	})

	// The golden-ratio boundary: above (sqrt(5)-1)/2 the per-fault
	// variance ordering reverses.
	single, err := faultmodel.New([]faultmodel.Fault{{P: 0.8, Q: 0.5}})
	if err != nil {
		return nil, err
	}
	s1, err := single.SigmaPFD(1)
	if err != nil {
		return nil, err
	}
	s2, err := single.SigmaPFD(2)
	if err != nil {
		return nil, err
	}
	res.Checks = append(res.Checks, Check{
		Name:     "golden-ratio threshold",
		Paper:    "p^2(1-p^2) <= p(1-p) iff p <= 0.618033987; above it sigma2 can exceed sigma1",
		Measured: fmt.Sprintf("at p=0.8: sigma1=%s, sigma2=%s (sigma2 > sigma1: %v)", report.Fmt(s1), report.Fmt(s2), s2 > s1),
		Pass:     s2 > s1 && !single.SigmaBoundHolds(),
	})

	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		return nil, err
	}
	res.Text = b.String()
	return res, nil
}
