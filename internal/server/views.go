package server

import (
	"time"

	"diversity/internal/engine"
	"diversity/internal/stats"
)

// jobView is the API representation of a submitted job. Result is only
// populated on detail responses (GET /v1/jobs/{id} and the SSE "done"
// event); listings carry the lifecycle fields alone.
type jobView struct {
	ID        string        `json:"id"`
	JobID     string        `json:"jobId"`
	RunID     string        `json:"runId,omitempty"`
	Kind      string        `json:"kind"`
	Status    string        `json:"status"`
	Submitted time.Time     `json:"submitted"`
	Started   *time.Time    `json:"started,omitempty"`
	Finished  *time.Time    `json:"finished,omitempty"`
	Error     string        `json:"error,omitempty"`
	Progress  *progressView `json:"progress,omitempty"`
	Result    *resultView   `json:"result,omitempty"`
}

// progressView mirrors engine.Progress, plus the run ID so SSE
// consumers can correlate progress frames with server logs and traces.
type progressView struct {
	Run   string `json:"run,omitempty"`
	Stage string `json:"stage"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
}

// resultView is the API representation of an engine result: the stable
// job identity and cache disposition, plus a kind-matched payload. It
// summarises rather than dumps. A million-fault model's parameters stay
// server-side, and a buffered run's raw PFD samples are not retained at
// all: the node keeps each Monte-Carlo result as its two summaries from
// the moment the job finishes, so a view only copies fields.
type resultView struct {
	JobID       string           `json:"jobId"`
	Hash        string           `json:"hash"`
	FromCache   bool             `json:"fromCache"`
	Model       string           `json:"model,omitempty"`
	ModelFaults int              `json:"modelFaults,omitempty"`
	MonteCarlo  *mcResultView    `json:"montecarlo,omitempty"`
	RareEvent   *rareResultView  `json:"rareEvent,omitempty"`
	Experiments []experimentView `json:"experiments,omitempty"`
	Analytic    *analyticView    `json:"analytic,omitempty"`
}

// summaryView carries the descriptive statistics of a PFD population.
type summaryView struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stdDev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Median float64 `json:"median"`
	Q05    float64 `json:"q05"`
	Q95    float64 `json:"q95"`
	Q99    float64 `json:"q99"`
}

func summaryViewOf(s stats.Summary) summaryView {
	return summaryView{
		N: s.N, Mean: s.Mean, StdDev: s.StdDev, Min: s.Min, Max: s.Max,
		Median: s.Median, Q05: s.Q05, Q95: s.Q95, Q99: s.Q99,
	}
}

type mcResultView struct {
	Reps             int         `json:"reps"`
	Versions         int         `json:"versions,omitempty"`
	Adjudicator      string      `json:"adjudicator,omitempty"`
	Streaming        bool        `json:"streaming,omitempty"`
	Sparse           bool        `json:"sparse,omitempty"`
	Version          summaryView `json:"version"`
	System           summaryView `json:"system"`
	VersionFaultFree int         `json:"versionFaultFree"`
	SystemFaultFree  int         `json:"systemFaultFree"`
	RiskRatio        *float64    `json:"riskRatio,omitempty"`
}

type estimateView struct {
	Probability float64 `json:"probability"`
	StdErr      float64 `json:"stdErr"`
	HitFraction float64 `json:"hitFraction"`
}

type rareResultView struct {
	ImportanceSampling estimateView `json:"importanceSampling"`
	Naive              estimateView `json:"naive"`
	ClosedForm         float64      `json:"closedForm"`
}

type checkView struct {
	Name     string `json:"name"`
	Paper    string `json:"paper"`
	Measured string `json:"measured"`
	Pass     bool   `json:"pass"`
}

type experimentView struct {
	ID     string      `json:"id"`
	Title  string      `json:"title"`
	Passed bool        `json:"passed"`
	Checks []checkView `json:"checks"`
}

type gainView struct {
	K          float64 `json:"k"`
	Mu1        float64 `json:"mu1"`
	Sigma1     float64 `json:"sigma1"`
	Mu2        float64 `json:"mu2"`
	Sigma2     float64 `json:"sigma2"`
	Bound1     float64 `json:"bound1"`
	Bound2     float64 `json:"bound2"`
	Bound11    float64 `json:"bound11"`
	Bound12    float64 `json:"bound12"`
	BoundRatio float64 `json:"boundRatio"`
	BoundDiff  float64 `json:"boundDiff"`
}

type boundView struct {
	Versions      int      `json:"versions"`
	Bound         float64  `json:"bound"`
	ExactQuantile *float64 `json:"exactQuantile,omitempty"`
}

type analyticView struct {
	Gain             gainView    `json:"gain"`
	SigmaBoundFactor float64     `json:"sigmaBoundFactor"`
	RiskRatio        *float64    `json:"riskRatio,omitempty"`
	SuccessRatio     float64     `json:"successRatio"`
	Confidence       float64     `json:"confidence"`
	Bounds           []boundView `json:"bounds"`
}

// viewOf renders a job's current state; withResult additionally renders
// the result payload of a completed job.
func (s *Server) viewOf(js *jobState, withResult bool) jobView {
	js.mu.Lock()
	defer js.mu.Unlock()
	v := jobView{
		ID:        js.id,
		JobID:     js.engineID,
		RunID:     js.runID,
		Kind:      string(js.job.Kind),
		Status:    string(js.status),
		Submitted: js.submitted,
		Error:     js.errMsg,
	}
	if !js.started.IsZero() {
		t := js.started
		v.Started = &t
	}
	if !js.finished.IsZero() {
		t := js.finished
		v.Finished = &t
	}
	if p, ok := js.tracker.snapshot(); ok && !js.status.terminal() {
		v.Progress = &progressView{Run: js.runID, Stage: p.Stage, Done: p.Done, Total: p.Total}
	}
	if withResult && js.status == statusDone && js.result != nil {
		v.Result = resultViewOf(js.result)
	}
	return v
}

// resultViewOf maps an engine result to its API view.
func resultViewOf(res *engine.Result) *resultView {
	v := &resultView{
		JobID:     res.ID,
		Hash:      res.Hash,
		FromCache: res.FromCache,
		Model:     res.ModelName,
	}
	if res.FaultSet != nil {
		v.ModelFaults = res.FaultSet.N()
	}
	switch {
	case res.MonteCarlo != nil:
		mc := res.MonteCarlo
		mv := &mcResultView{
			Reps:             mc.Reps,
			Versions:         mc.Versions,
			Adjudicator:      mc.Adjudicator,
			Streaming:        mc.Streaming,
			Sparse:           mc.Sparse,
			VersionFaultFree: mc.VersionFaultFree,
			SystemFaultFree:  mc.SystemFaultFree,
		}
		if sum, err := mc.VersionSummary(); err == nil {
			mv.Version = summaryViewOf(sum)
		}
		if sum, err := mc.SystemSummary(); err == nil {
			mv.System = summaryViewOf(sum)
		}
		if ratio, err := mc.RiskRatio(); err == nil {
			mv.RiskRatio = &ratio
		}
		v.MonteCarlo = mv
	case res.RareEvent != nil:
		re := res.RareEvent
		v.RareEvent = &rareResultView{
			ImportanceSampling: estimateView{
				Probability: re.ImportanceSampling.Probability,
				StdErr:      re.ImportanceSampling.StdErr,
				HitFraction: re.ImportanceSampling.HitFraction,
			},
			Naive: estimateView{
				Probability: re.Naive.Probability,
				StdErr:      re.Naive.StdErr,
				HitFraction: re.Naive.HitFraction,
			},
			ClosedForm: re.ClosedForm,
		}
	case res.Experiments != nil:
		for _, exp := range res.Experiments {
			ev := experimentView{ID: exp.ID, Title: exp.Title, Passed: exp.Passed()}
			for _, c := range exp.Checks {
				ev.Checks = append(ev.Checks, checkView{Name: c.Name, Paper: c.Paper, Measured: c.Measured, Pass: c.Pass})
			}
			v.Experiments = append(v.Experiments, ev)
		}
	case res.Analytic != nil:
		ar := res.Analytic
		av := &analyticView{
			Gain: gainView{
				K: ar.Gain.K, Mu1: ar.Gain.Mu1, Sigma1: ar.Gain.Sigma1,
				Mu2: ar.Gain.Mu2, Sigma2: ar.Gain.Sigma2,
				Bound1: ar.Gain.Bound1, Bound2: ar.Gain.Bound2,
				Bound11: ar.Gain.Bound11, Bound12: ar.Gain.Bound12,
				BoundRatio: ar.Gain.BoundRatio, BoundDiff: ar.Gain.BoundDiff,
			},
			SigmaBoundFactor: ar.SigmaBoundFactor,
			SuccessRatio:     ar.SuccessRatio,
			Confidence:       ar.Confidence,
		}
		if ar.HasRiskRatio {
			ratio := ar.RiskRatio
			av.RiskRatio = &ratio
		}
		for _, b := range ar.Bounds {
			bv := boundView{Versions: b.Versions, Bound: b.Bound}
			if b.HasExact {
				q := b.ExactQuantile
				bv.ExactQuantile = &q
			}
			av.Bounds = append(av.Bounds, bv)
		}
		v.Analytic = av
	}
	return v
}
