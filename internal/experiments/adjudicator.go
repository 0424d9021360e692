package experiments

import (
	"context"
	"fmt"
	"strings"

	"diversity/internal/faultmodel"
	"diversity/internal/report"
	"diversity/internal/system"
)

var _ = register("E23", runE23Adjudicator)

// runE23Adjudicator relaxes the paper's "perfect adjudication" assumption
// (Section 1: "two versions, with perfect adjudication — simple OR
// combination of binary outputs"): a real voter/actuator stage fails on a
// demand with its own probability, flooring the total system PFD and
// saturating the gain that software diversity can deliver.
func runE23Adjudicator(ctx context.Context, cfg Config) (*Result, error) {
	res := &Result{
		ID:    "E23",
		Title: "Extension: imperfect adjudication floors the diversity gain",
	}
	fs, err := faultmodel.New([]faultmodel.Fault{
		{P: 0.1, Q: 0.002},
		{P: 0.05, Q: 0.004},
		{P: 0.02, Q: 0.001},
	})
	if err != nil {
		return nil, err
	}
	single, err := fs.MeanPFD(1)
	if err != nil {
		return nil, err
	}
	pair, err := fs.MeanPFD(2)
	if err != nil {
		return nil, err
	}
	softwareGain := single / pair

	tbl, err := report.NewTable(
		fmt.Sprintf("Total mean PFD and gain vs adjudicator reliability (software gain %.0fx)", softwareGain),
		"adjudicator PFD", "total single", "total 1oo2", "total gain", "diversity worthwhile (>= 5x)?")
	if err != nil {
		return nil, err
	}
	sweep := []float64{0, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3}
	gains := make([]float64, 0, len(sweep))
	for _, stagePFD := range sweep {
		adj := system.ImperfectAdjudicator{Voter: system.OneOutOfN{}, StagePFD: stagePFD}
		totalSingle := system.ApplyStagePFD(adj, single)
		totalPair := system.ApplyStagePFD(adj, pair)
		gain := totalSingle / totalPair
		gains = append(gains, gain)
		if err := tbl.AddRow(report.Fmt(stagePFD), report.Fmt(totalSingle),
			report.Fmt(totalPair), report.Fmt(gain), fmt.Sprintf("%v", gain >= 5)); err != nil {
			return nil, err
		}
	}
	// Gains fall monotonically with adjudicator PFD, from the software
	// gain to ~1.
	monotone := true
	for i := 1; i < len(gains); i++ {
		if gains[i] > gains[i-1]+1e-12 {
			monotone = false
		}
	}
	res.Checks = append(res.Checks, Check{
		Name:     "perfect adjudication recovers the paper's model",
		Paper:    "the paper assumes perfect adjudication",
		Measured: fmt.Sprintf("at adjudicator PFD 0 the total gain equals the software gain %.1fx", gains[0]),
		Pass:     relErr(softwareGain, gains[0]) < 1e-9,
	})
	res.Checks = append(res.Checks, Check{
		Name:     "adjudicator floors the gain",
		Paper:    "(extension) the voter becomes the reliability bottleneck",
		Measured: fmt.Sprintf("total gain falls monotonically from %.1fx to %.2fx as the adjudicator degrades to 1e-3", gains[0], gains[len(gains)-1]),
		Pass:     monotone && gains[len(gains)-1] < 2,
	})

	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		return nil, err
	}
	res.Text = b.String()
	return res, nil
}
