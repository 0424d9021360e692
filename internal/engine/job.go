// Package engine is the unified execution layer: every run path of the
// repository — Monte-Carlo simulation of the fault creation process,
// rare-event estimation, the paper's experiment suite, and the analytic
// assessor report — is expressed as a typed, JSON-serialisable Job and
// executed through a single Run(ctx, job) entry point.
//
// Jobs are hermetic: a job spec names its model either as a scenario
// (name + generation seed) or as inline fault parameters, never as a file
// path, so the canonical JSON encoding of a job fully determines its
// result. That makes jobs hashable, and the engine exploits it with an
// in-memory LRU result cache keyed by the canonical job hash: repeated
// identical runs (same model, seed, reps, arch) are served
// without recomputation. Execution is context-aware end to end —
// cancellation propagates into the Monte-Carlo workers — and a
// progress hook reports replications completed and per-experiment stages.
// The engine is the substrate for serving, batching and sharding layers;
// the three CLIs (mcsim, diversity, experiments) are thin clients of it.
package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"diversity/internal/experiments"
	"diversity/internal/faultmodel"
	"diversity/internal/scenario"
	"diversity/internal/system"
)

// JobKind identifies what a job computes.
type JobKind string

const (
	// JobMonteCarlo replicates the fault creation process and measures
	// the version and system PFD populations.
	JobMonteCarlo JobKind = "montecarlo"
	// JobRareEvent estimates P(system carries any defeating fault) by
	// importance sampling, with the naive estimator and the closed form
	// alongside.
	JobRareEvent JobKind = "rare-event"
	// JobExperiments runs paper-vs-measured experiments from the suite.
	JobExperiments JobKind = "experiments"
	// JobAnalytic computes the assessor-facing analytic report: moments,
	// gain bounds, risk ratios, and confidence bounds.
	JobAnalytic JobKind = "analytic"
)

// hashDomain versions the canonical encoding; bump it when a change to the
// job schema or to result semantics must invalidate previously cached or
// persisted hashes. v2: Monte-Carlo replication blocks draw from streams
// keyed by block index, which changed every fixed-seed Monte-Carlo and
// experiments result, and the worker count left the encoding. v3: the
// rare-event estimators run on the same blocks, which changed every
// fixed-seed rare-event result; no other kind's result moved. v4: every
// dense Monte-Carlo and rare-event run develops 64-lane fault-major
// tiles, which changed every dense fixed-seed result, and batchWidth
// left the encoding. v5: every dense Bernoulli mask is decided
// bit-serially, which changed every dense fixed-seed Monte-Carlo,
// rare-event and experiments result; sparse results did not move. v6:
// every process develops through its 64-lane rows, so a sparse run of a
// correlated or tied-pairs process now equals its dense run, and the
// experiments that develop versions one at a time (E12, E15, E22) moved;
// no other result moved. v7: a sparse run of the independent process
// develops 64-lane tiles of sparse fault-major rows, and the sparse
// rare-event estimators skip-sample the same 64-lane grid, which changed
// every fixed-seed sparse Monte-Carlo, rare-event and experiments result;
// no dense result moved.
const hashDomain = "diversity/engine/v7"

// ModelSpec names the fault-set model a job runs against. Exactly one of
// Scenario or Faults must be set. Model files are resolved to inline
// faults by the caller (see cliutil.JobModel) so that the spec — and hence
// the job hash — depends on the model parameters, not on a path.
type ModelSpec struct {
	// Scenario is a named scenario regime (see internal/scenario);
	// ScenarioSeed drives its generation.
	Scenario     string `json:"scenario,omitempty"`
	ScenarioSeed uint64 `json:"scenarioSeed,omitempty"`
	// Faults are inline model parameters; Name is their display name.
	Faults []faultmodel.Fault `json:"faults,omitempty"`
	Name   string             `json:"name,omitempty"`
}

func (m ModelSpec) validate() error {
	switch {
	case m.Scenario != "" && len(m.Faults) > 0:
		return fmt.Errorf("engine: model spec names scenario %q and %d inline faults; want exactly one", m.Scenario, len(m.Faults))
	case m.Scenario == "" && len(m.Faults) == 0:
		return fmt.Errorf("engine: model spec is empty: set Scenario or Faults")
	case m.Scenario != "" && !slices.Contains(scenario.Names(), m.Scenario):
		return fmt.Errorf("engine: unknown scenario %q (known: %s)", m.Scenario, strings.Join(scenario.Names(), ", "))
	}
	return nil
}

// Resolve generates or assembles the fault set the spec names, returning
// it with its display name.
func (m ModelSpec) Resolve() (*faultmodel.FaultSet, string, error) {
	if err := m.validate(); err != nil {
		return nil, "", err
	}
	if m.Scenario != "" {
		sc, err := scenario.ByName(m.Scenario, m.ScenarioSeed)
		if err != nil {
			return nil, "", fmt.Errorf("engine: %w", err)
		}
		return sc.FaultSet, sc.Name, nil
	}
	fs, err := faultmodel.New(m.Faults)
	if err != nil {
		return nil, "", fmt.Errorf("engine: inline model invalid: %w", err)
	}
	return fs, m.Name, nil
}

// ModelFromFaultSet returns an inline ModelSpec carrying the fault set's
// parameters.
func ModelFromFaultSet(fs *faultmodel.FaultSet, name string) ModelSpec {
	faults := make([]faultmodel.Fault, fs.N())
	for i := range faults {
		faults[i] = fs.Fault(i)
	}
	return ModelSpec{Faults: faults, Name: name}
}

// MonteCarloSpec parameterises a Monte-Carlo replication job.
type MonteCarloSpec struct {
	Model ModelSpec `json:"model"`
	// Versions is the number of versions per replication.
	Versions int `json:"versions"`
	// Arch is the wire alias for Adjudicator that specs written before
	// adjudicators existed use: "1oom" (the default) or "majority".
	// ResolveAdjudicator turns it into the adjudicator of that name.
	Arch string `json:"arch,omitempty"`
	// Adjudicator selects the voting rule by spec string — "1oon",
	// "majority", or k-of-N forms like "2oo3", any with an optional
	// "@pfd" imperfect-stage suffix (system.ParseAdjudicator). Empty
	// falls back to Arch; the omitempty encoding keeps every pre-existing
	// job hash and cache key unchanged. Setting both Arch and Adjudicator
	// is a validation error.
	Adjudicator string `json:"adjudicator,omitempty"`
	// Reps is the number of replications; Workers the number of worker
	// goroutines (0 = all cores). Results depend on the seed alone, so
	// Workers is left out of the job hash: it only sets how many
	// goroutines the run uses.
	Reps    int    `json:"reps"`
	Workers int    `json:"workers,omitempty"`
	Seed    uint64 `json:"seed"`
	// Correlation > 0 develops versions with the common-cause process
	// (Boost is its boost factor); zero is the paper's independent model.
	Correlation float64 `json:"correlation,omitempty"`
	Boost       float64 `json:"boost,omitempty"`
	// Streaming selects constant-memory aggregation (montecarlo
	// Config.Streaming): the result carries mergeable aggregates instead
	// of raw PFD samples. The flag participates in the job hash — the
	// omitempty encoding keeps pre-existing hashes of buffered jobs
	// stable — because the two modes produce differently-shaped results.
	Streaming bool `json:"streaming,omitempty"`
	// Sparse selects the geometric skip-sampling development kernel
	// (montecarlo Config.Sparse). It participates in the job hash — sparse
	// runs draw a different variate sequence for the same seed, so their
	// results differ numerically from dense runs — and the omitempty
	// encoding keeps every pre-existing dense-job hash unchanged.
	Sparse bool `json:"sparse,omitempty"`
	// BatchWidth is accepted for older clients and ignored: every dense
	// run tiles 64 replications. It is validated (0 to 65536) and left
	// out of the job hash.
	BatchWidth int `json:"batchWidth,omitempty"`
}

// RareEventSpec parameterises an importance-sampling estimation job.
type RareEventSpec struct {
	Model    ModelSpec `json:"model"`
	Versions int       `json:"versions"`
	Reps     int       `json:"reps"`
	Seed     uint64    `json:"seed"`
	// TiltTarget is the per-fault presence probability under the tilted
	// measure; 0 selects the default of 0.3.
	TiltTarget float64 `json:"tiltTarget,omitempty"`
	// Sparse runs both estimators with the geometric skip-sampling kernel
	// (montecarlo RareOptions.Sparse); omitempty keeps dense-job hashes
	// stable.
	Sparse bool `json:"sparse,omitempty"`
	// Adjudicator selects the voting rule whose defeating faults the
	// estimators count (system.ParseAdjudicator spec string). Empty means
	// 1-out-of-m, bit for bit the historical estimator; omitempty keeps
	// pre-existing job hashes unchanged.
	Adjudicator string `json:"adjudicator,omitempty"`
	// BatchWidth is accepted and ignored, as MonteCarloSpec.BatchWidth is.
	BatchWidth int `json:"batchWidth,omitempty"`
}

// ExperimentsSpec parameterises a paper-experiment suite job.
type ExperimentsSpec struct {
	// IDs selects experiments in run order; empty means the full suite.
	IDs  []string `json:"ids,omitempty"`
	Seed uint64   `json:"seed"`
	// Quick reduces replication counts by roughly an order of magnitude.
	Quick bool `json:"quick,omitempty"`
	// Streaming runs the suite's Monte-Carlo passes with constant-memory
	// aggregation. Like MonteCarloSpec.Streaming it participates in the
	// job hash, with omitempty keeping buffered-job hashes unchanged.
	Streaming bool `json:"streaming,omitempty"`
	// Sparse runs the suite's Monte-Carlo passes with the geometric
	// skip-sampling kernel; omitempty keeps dense-job hashes unchanged.
	Sparse bool `json:"sparse,omitempty"`
	// BatchWidth is accepted and ignored, as MonteCarloSpec.BatchWidth is.
	BatchWidth int `json:"batchWidth,omitempty"`
	// Versions and Adjudicator, when set together, ask the N-version
	// experiments (E19) to evaluate one extra arrangement: an N-version
	// pool under the given voting rule, closed form against Monte Carlo.
	// Both omitempty, keeping pre-existing job hashes unchanged; setting
	// one without the other is a validation error.
	Versions    int    `json:"versions,omitempty"`
	Adjudicator string `json:"adjudicator,omitempty"`
}

// AnalyticSpec parameterises an assessor-report job.
type AnalyticSpec struct {
	Model ModelSpec `json:"model"`
	// K is the sigma multiplier for the µ+kσ bounds.
	K float64 `json:"k"`
	// Confidence is the level for the normal-approximation bounds.
	Confidence float64 `json:"confidence"`
}

// Job is one unit of executable work: a kind plus the matching spec. Jobs
// marshal to canonical JSON and are hashable; construct them with the
// NewXxxJob helpers or directly.
type Job struct {
	Kind        JobKind          `json:"kind"`
	MonteCarlo  *MonteCarloSpec  `json:"montecarlo,omitempty"`
	RareEvent   *RareEventSpec   `json:"rareEvent,omitempty"`
	Experiments *ExperimentsSpec `json:"experiments,omitempty"`
	Analytic    *AnalyticSpec    `json:"analytic,omitempty"`
}

// NewMonteCarloJob wraps a Monte-Carlo spec as a Job.
func NewMonteCarloJob(spec MonteCarloSpec) Job {
	return Job{Kind: JobMonteCarlo, MonteCarlo: &spec}
}

// NewRareEventJob wraps a rare-event spec as a Job.
func NewRareEventJob(spec RareEventSpec) Job {
	return Job{Kind: JobRareEvent, RareEvent: &spec}
}

// NewExperimentsJob wraps an experiment-suite spec as a Job.
func NewExperimentsJob(spec ExperimentsSpec) Job {
	return Job{Kind: JobExperiments, Experiments: &spec}
}

// NewAnalyticJob wraps an analytic spec as a Job.
func NewAnalyticJob(spec AnalyticSpec) Job {
	return Job{Kind: JobAnalytic, Analytic: &spec}
}

// maxBatchWidth caps the ignored batchWidth field at the bound older
// servers enforced, so a request they answered with 400 still gets one.
const maxBatchWidth = 65536

// validateBatchWidth checks a spec's ignored batchWidth field.
func validateBatchWidth(width int) error {
	if width < 0 {
		return fmt.Errorf("engine: batch width %d must not be negative", width)
	}
	if width > maxBatchWidth {
		return fmt.Errorf("engine: batch width %d exceeds the maximum of %d", width, maxBatchWidth)
	}
	return nil
}

// ResolveAdjudicator resolves a spec's voting rule from its adjudicator
// string or from arch, the adjudicator's wire alias, and validates the
// rule against the version count — a 2oo3 rule over 2 versions fails here
// with a system.*VersionCountError, which the serve layer surfaces as
// HTTP 400. Setting both arch and adjudicator is an error. arch accepts
// only the names it always has, "" and "1oom" (1-out-of-N) and
// "majority": any other spelling of an existing rule would hash the same
// computation under a second job ID.
func ResolveAdjudicator(arch, adjudicator string, versions int) (system.Adjudicator, error) {
	if arch != "" && adjudicator != "" {
		return nil, fmt.Errorf("engine: set either arch %q or adjudicator %q, not both", arch, adjudicator)
	}
	if adjudicator == "" {
		switch arch {
		case "", "1oom", "majority":
			adjudicator = arch
		default:
			return nil, fmt.Errorf("engine: unknown architecture %q (want 1oom or majority)", arch)
		}
	}
	adj, err := system.ParseAdjudicator(adjudicator)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if err := adj.Validate(versions); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	return adj, nil
}

// Validate checks that the job carries exactly the spec its kind requires
// and that the spec's parameters are executable. It mirrors the checks the
// underlying run paths perform, so invalid jobs fail before any work (and
// before touching the cache).
func (j Job) Validate() error {
	specs := 0
	for _, set := range []bool{j.MonteCarlo != nil, j.RareEvent != nil, j.Experiments != nil, j.Analytic != nil} {
		if set {
			specs++
		}
	}
	if specs != 1 {
		return fmt.Errorf("engine: job must carry exactly one spec, has %d", specs)
	}
	switch j.Kind {
	case JobMonteCarlo:
		spec := j.MonteCarlo
		if spec == nil {
			return fmt.Errorf("engine: %s job is missing its spec", j.Kind)
		}
		if err := spec.Model.validate(); err != nil {
			return err
		}
		if spec.Versions < 1 {
			return fmt.Errorf("engine: versions per replication %d must be at least 1", spec.Versions)
		}
		if spec.Reps < 1 {
			return fmt.Errorf("engine: replication count %d must be at least 1", spec.Reps)
		}
		if spec.Workers < 0 {
			return fmt.Errorf("engine: worker count %d must not be negative", spec.Workers)
		}
		if _, err := ResolveAdjudicator(spec.Arch, spec.Adjudicator, spec.Versions); err != nil {
			return err
		}
		if spec.Correlation < 0 || spec.Correlation > 1 {
			return fmt.Errorf("engine: correlation %v must be a probability", spec.Correlation)
		}
		if err := validateBatchWidth(spec.BatchWidth); err != nil {
			return err
		}
	case JobRareEvent:
		spec := j.RareEvent
		if spec == nil {
			return fmt.Errorf("engine: %s job is missing its spec", j.Kind)
		}
		if err := spec.Model.validate(); err != nil {
			return err
		}
		if spec.Versions < 1 {
			return fmt.Errorf("engine: versions per replication %d must be at least 1", spec.Versions)
		}
		if spec.Reps < 2 {
			return fmt.Errorf("engine: replication count %d must be at least 2", spec.Reps)
		}
		if spec.TiltTarget < 0 || spec.TiltTarget >= 1 {
			return fmt.Errorf("engine: tilt target %v must be in [0, 1)", spec.TiltTarget)
		}
		if _, err := ResolveAdjudicator("", spec.Adjudicator, spec.Versions); err != nil {
			return err
		}
		if err := validateBatchWidth(spec.BatchWidth); err != nil {
			return err
		}
	case JobExperiments:
		spec := j.Experiments
		if spec == nil {
			return fmt.Errorf("engine: %s job is missing its spec", j.Kind)
		}
		if (spec.Versions != 0) != (spec.Adjudicator != "") {
			return fmt.Errorf("engine: experiments versions (%d) and adjudicator (%q) must be set together", spec.Versions, spec.Adjudicator)
		}
		if spec.Adjudicator != "" {
			if _, err := ResolveAdjudicator("", spec.Adjudicator, spec.Versions); err != nil {
				return err
			}
		}
		if err := validateBatchWidth(spec.BatchWidth); err != nil {
			return err
		}
	case JobAnalytic:
		spec := j.Analytic
		if spec == nil {
			return fmt.Errorf("engine: %s job is missing its spec", j.Kind)
		}
		if err := spec.Model.validate(); err != nil {
			return err
		}
		if spec.K < 0 {
			return fmt.Errorf("engine: sigma multiplier k=%v must be non-negative", spec.K)
		}
	default:
		return fmt.Errorf("engine: unknown job kind %q", j.Kind)
	}
	return nil
}

// normalized returns the job with derived defaults filled in, so that two
// specs describing the same computation hash identically: the
// Monte-Carlo worker count, which does not change the result, is
// dropped, and so is the ignored batch width; a zero rare-event tilt
// becomes the 0.3 default; an empty experiment selection becomes the
// full suite; an empty architecture becomes the explicit 1oom default.
func (j Job) normalized() Job {
	switch j.Kind {
	case JobMonteCarlo:
		spec := *j.MonteCarlo
		spec.Workers, spec.BatchWidth = 0, 0
		// A spec naming no rule hashes as the arch alias "1oom", as it
		// always has. An adjudicator spec must NOT have an arch filled in
		// (the pair would fail validation), and the Adjudicator field
		// itself is never normalised — unset stays unset, keeping every
		// legacy 1oo2 hash and cache key byte-identical.
		if spec.Arch == "" && spec.Adjudicator == "" {
			spec.Arch = "1oom"
		}
		if spec.Correlation == 0 {
			spec.Boost = 0
		}
		j.MonteCarlo = &spec
	case JobRareEvent:
		spec := *j.RareEvent
		if spec.TiltTarget == 0 {
			spec.TiltTarget = 0.3
		}
		spec.BatchWidth = 0
		j.RareEvent = &spec
	case JobExperiments:
		spec := *j.Experiments
		if len(spec.IDs) == 0 {
			spec.IDs = experiments.IDs()
		}
		spec.BatchWidth = 0
		j.Experiments = &spec
	}
	return j
}

// CanonicalJSON returns the canonical encoding of the normalised job: the
// deterministic, schema-ordered JSON document the job hash is computed
// over.
func (j Job) CanonicalJSON() ([]byte, error) {
	if err := j.Validate(); err != nil {
		return nil, err
	}
	doc, err := json.Marshal(j.normalized())
	if err != nil {
		return nil, fmt.Errorf("engine: encoding job: %w", err)
	}
	return doc, nil
}

// Hash returns the canonical job hash: hex SHA-256 over a domain prefix
// and the canonical JSON. Jobs with equal hashes compute identical
// results, which is what makes the hash a sound cache key.
func (j Job) Hash() (string, error) {
	doc, err := j.CanonicalJSON()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write([]byte(hashDomain))
	h.Write([]byte{0})
	h.Write(doc)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// IDFromHash derives the stable job identifier from a canonical job
// hash: "job-" plus the first 16 hex digits. The prefix length keeps IDs
// log- and URL-friendly while leaving the collision probability across a
// cache's worth of jobs negligible (2^-64 per pair).
func IDFromHash(hash string) string {
	if len(hash) > 16 {
		hash = hash[:16]
	}
	return "job-" + hash
}

// ID returns the job's stable string identifier, derived from the
// canonical hash: two specs describing the same computation get the same
// ID. Results carry it (Result.ID), so repeated submissions are
// observable as cache hits end-to-end.
func (j Job) ID() (string, error) {
	hash, err := j.Hash()
	if err != nil {
		return "", err
	}
	return IDFromHash(hash), nil
}
