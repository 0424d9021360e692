package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"diversity/internal/devsim"
	"diversity/internal/faultmodel"
	"diversity/internal/montecarlo"
	"diversity/internal/randx"
	"diversity/internal/report"
	"diversity/internal/stats"
	"diversity/internal/system"
)

var _ = register("E18", runE18ForcedDiversity)

// runE18ForcedDiversity exercises the paper's listed extension "further
// study of the cases of forced and functional diversity": channels from
// two different development processes over the same fault universe. The
// AM-GM theorem guarantees that, against a single process with the same
// per-fault average skill, forcing diversity never raises the mean system
// PFD — and helps most when the processes' difficulty profiles are
// anti-correlated.
func runE18ForcedDiversity(ctx context.Context, cfg Config) (*Result, error) {
	res := &Result{
		ID:    "E18",
		Title: "Extension: forced diversity (two development processes)",
	}
	// One universe, three process-pair arrangements: identical profiles
	// (non-forced), mildly different, and anti-correlated weaknesses.
	qs := []float64{0.05, 0.08, 0.04, 0.06}
	makeSet := func(ps []float64) (*faultmodel.FaultSet, error) {
		return faultmodel.FromSlices(ps, qs)
	}
	arrangements := []struct {
		name   string
		pa, pb []float64
	}{
		{name: "identical (non-forced)", pa: []float64{0.3, 0.2, 0.1, 0.25}, pb: []float64{0.3, 0.2, 0.1, 0.25}},
		{name: "mildly different", pa: []float64{0.35, 0.15, 0.12, 0.3}, pb: []float64{0.25, 0.25, 0.08, 0.2}},
		{name: "anti-correlated", pa: []float64{0.5, 0.02, 0.45, 0.03}, pb: []float64{0.1, 0.38, 0.05, 0.47}},
	}
	tbl, err := report.NewTable(
		"Forced vs unforced diversity (same average per-fault skill)",
		"arrangement", "E[Θ_A]", "E[Θ_B]", "E[Θ_AB] forced", "E[Θ2] unforced", "advantage", "P(no common fault)")
	if err != nil {
		return nil, err
	}
	advantages := make([]float64, 0, len(arrangements))
	for _, arr := range arrangements {
		a, err := makeSet(arr.pa)
		if err != nil {
			return nil, err
		}
		b, err := makeSet(arr.pb)
		if err != nil {
			return nil, err
		}
		tp, err := faultmodel.NewTwoProcess(a, b)
		if err != nil {
			return nil, err
		}
		ratio, forced, unforced, err := tp.ForcedAdvantage()
		if err != nil {
			return nil, err
		}
		advantages = append(advantages, ratio)
		if err := tbl.AddRow(arr.name,
			report.Fmt(tp.MeanPFDA()), report.Fmt(tp.MeanPFDB()),
			report.Fmt(forced), report.Fmt(unforced),
			report.Fmt(ratio), report.Fmt(tp.PNoCommonFault())); err != nil {
			return nil, err
		}
	}
	res.Checks = append(res.Checks, Check{
		Name:     "non-forced is the worst case",
		Paper:    "non-forced diversity can be seen as a worst-case analysis for systems using forced diversity",
		Measured: fmt.Sprintf("forced advantage 1.00 (identical), %s (mild), %s (anti-correlated)", report.Fmt(advantages[1]), report.Fmt(advantages[2])),
		Pass:     math.Abs(advantages[0]-1) < 1e-12 && advantages[1] > 1 && advantages[2] > advantages[1],
	})

	// AM-GM sweep over random process pairs.
	r := randx.NewStream(cfg.Seed + 91)
	trials := cfg.reps(3000)
	violations := 0
	for trial := 0; trial < trials; trial++ {
		pa := make([]float64, len(qs))
		pb := make([]float64, len(qs))
		for i := range pa {
			pa[i] = r.Float64()
			pb[i] = r.Float64()
		}
		a, err := makeSet(pa)
		if err != nil {
			return nil, err
		}
		b, err := makeSet(pb)
		if err != nil {
			return nil, err
		}
		tp, err := faultmodel.NewTwoProcess(a, b)
		if err != nil {
			return nil, err
		}
		ratio, _, _, err := tp.ForcedAdvantage()
		if err != nil {
			continue
		}
		if ratio < 1-1e-12 {
			violations++
		}
	}
	res.Checks = append(res.Checks, Check{
		Name:     "AM-GM guarantee",
		Paper:    "(extension theorem) forcing diversity never raises the mean system PFD at equal average skill",
		Measured: fmt.Sprintf("%d violations in %d random process pairs", violations, trials),
		Pass:     violations == 0,
	})
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		return nil, err
	}
	res.Text = b.String()
	return res, nil
}

var _ = register("E19", runE19NVersion)

// runE19NVersion extends the paper's 1-out-of-2 analysis to larger
// N-version arrangements: 1-out-of-m systems (a fault must survive every
// development) and 2-out-of-3 majority voting, comparing analytic means
// with Monte Carlo.
func runE19NVersion(ctx context.Context, cfg Config) (*Result, error) {
	res := &Result{
		ID:    "E19",
		Title: "Extension: N-version arrangements (1-out-of-m, 2-out-of-3)",
	}
	fs, err := faultmodel.New([]faultmodel.Fault{
		{P: 0.3, Q: 0.05}, {P: 0.2, Q: 0.08}, {P: 0.15, Q: 0.04}, {P: 0.1, Q: 0.06},
	})
	if err != nil {
		return nil, err
	}
	reps := cfg.reps(200000)

	tbl, err := report.NewTable(
		"Architectures over the same fault universe",
		"architecture", "mean PFD (model)", "mean PFD (MC)", "P(system fault-free) MC", "gain vs 1 version")
	if err != nil {
		return nil, err
	}
	mu1, err := fs.MeanPFD(1)
	if err != nil {
		return nil, err
	}
	type arrangement struct {
		name     string
		versions int
		adj      system.Adjudicator
		model    float64
	}
	mu2, err := fs.MeanPFD(2)
	if err != nil {
		return nil, err
	}
	mu3, err := fs.MeanPFD(3)
	if err != nil {
		return nil, err
	}
	// 2-out-of-3 majority: a fault defeats the system when present in at
	// least 2 of 3 versions: 3p²(1-p)+p³ per fault.
	majority := 0.0
	for i := 0; i < fs.N(); i++ {
		p, q := fs.Fault(i).P, fs.Fault(i).Q
		majority += (3*p*p*(1-p) + p*p*p) * q
	}
	arrangements := []arrangement{
		{name: "1 version", versions: 1, adj: system.OneOutOfN{}, model: mu1},
		{name: "1-out-of-2", versions: 2, adj: system.OneOutOfN{}, model: mu2},
		{name: "1-out-of-3", versions: 3, adj: system.OneOutOfN{}, model: mu3},
		{name: "2-out-of-3 majority", versions: 3, adj: system.MajorityVote{}, model: majority},
	}
	// Config.Versions/Adjudicator request one extra arrangement: the
	// generalised k-of-N closed form (system.MeanSystemPFD) against its own
	// Monte-Carlo run. With the fields unset the experiment's output is
	// unchanged.
	if cfg.Adjudicator != nil {
		model, err := system.MeanSystemPFD(fs, cfg.Adjudicator, cfg.Versions)
		if err != nil {
			return nil, err
		}
		arrangements = append(arrangements, arrangement{
			name:     fmt.Sprintf("%s over %d versions", cfg.Adjudicator.Name(), cfg.Versions),
			versions: cfg.Versions,
			adj:      cfg.Adjudicator,
			model:    model,
		})
	}
	means := make([]float64, len(arrangements))
	for i, arr := range arrangements {
		mc, err := montecarlo.RunContext(ctx, montecarlo.Config{
			Process:     devsim.NewIndependentProcess(fs),
			Versions:    arr.versions,
			Adjudicator: arr.adj,
			Reps:        reps,
			Seed:        cfg.Seed + 95,
		})
		if err != nil {
			return nil, err
		}
		mean, err := stats.Mean(mc.SystemPFD)
		if err != nil {
			return nil, err
		}
		means[i] = mean
		if relErr(arr.model, mean) > 0.05 && math.Abs(arr.model-mean) > 1e-4 {
			res.Checks = append(res.Checks, Check{
				Name:     "MC agreement: " + arr.name,
				Paper:    "E[Θ_m] = Σ p_i^m q_i and the majority analogue",
				Measured: fmt.Sprintf("model %s vs MC %s", report.Fmt(arr.model), report.Fmt(mean)),
				Pass:     false,
			})
		}
		if err := tbl.AddRow(arr.name, report.Fmt(arr.model), report.Fmt(mean),
			report.Fmt(float64(mc.SystemFaultFree)/float64(reps)),
			report.Fmt(mu1/arr.model)); err != nil {
			return nil, err
		}
	}
	res.Checks = append(res.Checks, Check{
		Name:  "architecture ordering",
		Paper: "(extension of eq 1) more required coincidences mean lower mean PFD",
		Measured: fmt.Sprintf("1oo3 %s < 1oo2 %s < majority(2oo3) %s < single %s",
			report.Fmt(mu3), report.Fmt(mu2), report.Fmt(majority), report.Fmt(mu1)),
		Pass: mu3 < mu2 && mu2 < majority && majority < mu1,
	})
	allAgree := true
	for i, arr := range arrangements {
		if relErr(arr.model, means[i]) > 0.05 && math.Abs(arr.model-means[i]) > 1e-4 {
			allAgree = false
		}
	}
	agreeText := fmt.Sprintf("all four architecture means agree with simulation over %d replications", reps)
	if len(arrangements) > 4 {
		agreeText = fmt.Sprintf("all %d arrangement means agree with simulation over %d replications", len(arrangements), reps)
	}
	res.Checks = append(res.Checks, Check{
		Name:     "model vs Monte Carlo",
		Paper:    "closed forms for every arrangement",
		Measured: agreeText,
		Pass:     allAgree,
	})
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		return nil, err
	}
	res.Text = b.String()
	return res, nil
}
