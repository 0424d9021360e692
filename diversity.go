// Package diversity is a Go implementation of the probabilistic model of
// Popov & Strigini, "The Reliability of Diverse Systems: a Contribution
// using Modelling of the Fault Creation Process" (DSN 2001), together with
// the simulation substrates needed to validate and apply it.
//
// # The model
//
// A software development process faces a fixed universe of n potential
// faults. Fault i survives into an independently developed program version
// with probability p_i, and its (disjoint) failure region is hit by a
// random demand with probability q_i. The probability of failure on demand
// (PFD) of a version is the sum of the q_i of its faults; a 1-out-of-2
// diverse system — two independently developed versions whose shutdown
// outputs are OR-ed, as in a plant protection system — fails on a demand
// only when the demand lies in a failure region common to both versions,
// which happens for fault i with probability p_i².
//
// From these ingredients the model yields assessor-usable results:
//
//   - the moments of the PFD of versions and systems (MeanPFD, SigmaPFD);
//   - a guaranteed mean-gain bound: the two-version mean PFD is at least
//     1/pmax times better than one version's (PMax, MeanGain);
//   - the probability that a system has no common fault at all and the
//     risk ratio P(N2>0)/P(N1>0) (PNoFault, RiskRatio);
//   - how process improvement moves the gain from diversity: proportional
//     improvement always increases it (Appendix B), improvement targeting
//     a single fault class can reduce it (Appendix A, RiskRatioDeriv,
//     TwoFaultStationaryP1);
//   - confidence bounds on the system PFD under the Section-5 normal
//     approximation (ConfidenceBound, TwoVersionBoundFromMoments,
//     TwoVersionBoundFromBound), plus the exact distribution for small
//     fault universes (ExactPFD) and a lattice approximation for large
//     ones (LatticePFD);
//   - a Bayesian-assessment extension that uses the model as a physically
//     motivated prior and updates it on observed operation (UpdatePrior).
//
// # Layout
//
// This package is the public facade: it re-exports the core model and the
// most commonly used helpers. The full machinery lives in internal
// packages (fault model, development-process and demand-space simulators,
// Monte-Carlo harness, EL/LM baseline models, the Knight–Leveson replica,
// and the experiment drivers that regenerate the paper's tables and
// figures); the cmd/ directory exposes it as command-line tools and the
// examples/ directory as runnable programs.
package diversity

import (
	"context"

	"diversity/internal/bayes"
	"diversity/internal/devsim"
	"diversity/internal/engine"
	"diversity/internal/faultmodel"
	"diversity/internal/montecarlo"
	"diversity/internal/randx"
	"diversity/internal/scenario"
	"diversity/internal/stats"
	"diversity/internal/system"
)

// Core model types, re-exported.
type (
	// Fault is one potential fault: presence probability P and failure
	// region probability Q.
	Fault = faultmodel.Fault
	// FaultSet is the immutable 2n-parameter model.
	FaultSet = faultmodel.FaultSet
	// Distribution is a discrete distribution over PFD values.
	Distribution = faultmodel.Distribution
	// GainReport compares one- and two-version reliability bounds.
	GainReport = faultmodel.GainReport
	// ImprovementTrend classifies the effect of a single-fault process
	// improvement on the gain from diversity.
	ImprovementTrend = faultmodel.ImprovementTrend
	// Scenario is a named fault-set regime.
	Scenario = scenario.Scenario
	// Normal is a normal distribution (mean/σ), used for Section-5
	// confidence bounds.
	Normal = stats.Normal
	// Posterior is a Bayesian posterior over the system PFD.
	Posterior = bayes.Posterior
	// Version is one developed program version.
	Version = devsim.Version
	// Process develops program versions.
	Process = devsim.Process
	// IndependentProcess is the paper's independent-mistake process; its
	// Develop method develops one Version at a time.
	IndependentProcess = devsim.IndependentProcess
	// MonteCarloConfig parameterises a simulation run. Setting its
	// Streaming field selects constant-memory aggregation: the result
	// then carries StreamingAggregate values instead of raw PFD samples.
	// Setting its Sparse field selects the sparse development kernel
	// (geometric skip-sampling over bitset fault masks), which makes
	// replication cost O(faults present) rather than O(universe size) —
	// the same distribution from a different variate sequence. Without
	// it, a run tiles 64 replications per inner loop: each fault's
	// Bernoulli draws for the whole tile come as one fault-major word of
	// lane bits, and the words are scored word-wide against the voting
	// rule. Its BatchWidth field is deprecated and ignored.
	MonteCarloConfig = montecarlo.Config
	// MonteCarloResult holds simulated PFD populations — raw samples for
	// buffered runs, streaming aggregates for Streaming runs; its
	// VersionSummary and SystemSummary methods read statistics uniformly
	// in either mode.
	MonteCarloResult = montecarlo.Result
	// StreamingAggregate is the constant-memory aggregate of a streaming
	// Monte-Carlo run: mergeable moments, exact min/max and zero counts,
	// and a log-scale histogram for quantiles.
	StreamingAggregate = montecarlo.Agg
	// PFDSummary holds descriptive statistics of a PFD population.
	PFDSummary = stats.Summary
)

// GoldenThreshold is (sqrt(5)-1)/2: presence probabilities at or below it
// guarantee that diversity does not increase the PFD's standard deviation.
const GoldenThreshold = faultmodel.GoldenThreshold

// Improvement trend values, re-exported.
const (
	TrendIncreasesGain = faultmodel.TrendIncreasesGain
	TrendReducesGain   = faultmodel.TrendReducesGain
	TrendStationary    = faultmodel.TrendStationary
)

// Adjudicator types, re-exported. An Adjudicator is a pluggable voting
// rule over an N-version pool; the paper's Fig. 1 pair is OneOutOfN over
// 2 versions. MonteCarloConfig.Adjudicator, the engine job specs'
// adjudicator strings, and the closed-form helpers below all accept them.
type (
	// Adjudicator is a voting rule combining N version outputs.
	Adjudicator = system.Adjudicator
	// OneOutOfN is the paper's parallel/OR arrangement over N versions.
	OneOutOfN = system.OneOutOfN
	// MajorityVote is strict-majority N-version voting.
	MajorityVote = system.MajorityVote
	// KOutOfN is the general k-of-N arrangement with a pinned pool size.
	KOutOfN = system.KOutOfN
	// ImperfectAdjudicator wraps a voting rule with a failing
	// adjudication stage of the given per-demand PFD.
	ImperfectAdjudicator = system.ImperfectAdjudicator
	// VersionCountError reports a pool size an adjudicator cannot vote
	// over (e.g. 2oo3 over 2 versions).
	VersionCountError = system.VersionCountError
)

// ParseAdjudicator maps a spec string — "1oon", "majority", "KooN" like
// "2oo3", each optionally suffixed "@pfd" for an imperfect stage — to its
// adjudicator.
func ParseAdjudicator(spec string) (Adjudicator, error) { return system.ParseAdjudicator(spec) }

// MeanSystemPFD returns the adjudicated pool's mean system PFD — the
// k-of-N generalisation of the paper's equation (1).
func MeanSystemPFD(fs *FaultSet, adj Adjudicator, n int) (float64, error) {
	return system.MeanSystemPFD(fs, adj, n)
}

// PAnySystemFault returns the probability that an adjudicated N-version
// pool carries at least one defeating fault — the k-of-N generalisation
// of the Section-4 risk P(N_m > 0).
func PAnySystemFault(fs *FaultSet, adj Adjudicator, n int) (float64, error) {
	return system.PAnySystemFault(fs, adj, n)
}

// DefeatProbability returns the probability that a fault with presence
// probability p defeats the software stage of an n-version pool under the
// rule: the binomial tail above the rule's defeat threshold.
func DefeatProbability(adj Adjudicator, n int, p float64) float64 {
	return system.DefeatProbability(adj, n, p)
}

// New returns a FaultSet over the given potential faults. See
// faultmodel.New for the validation rules.
func New(faults []Fault) (*FaultSet, error) { return faultmodel.New(faults) }

// FromSlices builds a FaultSet from parallel slices of presence and region
// probabilities.
func FromSlices(ps, qs []float64) (*FaultSet, error) { return faultmodel.FromSlices(ps, qs) }

// Uniform returns a homogeneous FaultSet of n faults with common
// parameters p and q.
func Uniform(n int, p, q float64) (*FaultSet, error) { return faultmodel.Uniform(n, p, q) }

// SigmaBoundFactor returns sqrt(pmax(1+pmax)), the paper's equation-(9)
// standard-deviation bound factor (Section 5.1 table).
func SigmaBoundFactor(pmax float64) (float64, error) { return faultmodel.SigmaBoundFactor(pmax) }

// TwoVersionBoundFromMoments is the paper's formula (11): a bound on the
// two-version confidence expression µ2 + k·σ2 from the one-version
// moments and pmax.
func TwoVersionBoundFromMoments(mu1, sigma1, pmax, k float64) (float64, error) {
	return faultmodel.TwoVersionBoundFromMoments(mu1, sigma1, pmax, k)
}

// TwoVersionBoundFromBound is the paper's formula (12): a bound on the
// two-version confidence expression from the one-version bound alone.
func TwoVersionBoundFromBound(bound1, pmax float64) (float64, error) {
	return faultmodel.TwoVersionBoundFromBound(bound1, pmax)
}

// TwoFaultStationaryP1 returns the Appendix-A stationary point: the value
// of p1 at which improving fault 1 stops helping and starts hurting the
// gain from diversity, for a two-fault model with the other probability
// fixed at p2.
func TwoFaultStationaryP1(p2 float64) (float64, error) {
	return faultmodel.TwoFaultStationaryP1(p2)
}

// Stream is a deterministic, splittable random-variate stream; a Process
// develops versions by drawing from one.
type Stream = randx.Stream

// NewStream returns a Stream seeded with seed; the same seed reproduces
// the same draws exactly.
func NewStream(seed uint64) *Stream { return randx.NewStream(seed) }

// NewIndependentProcess returns the paper's independent-mistake
// development process over fs.
func NewIndependentProcess(fs *FaultSet) *IndependentProcess {
	return devsim.NewIndependentProcess(fs)
}

// MonteCarlo replicates the fault creation process, returning simulated
// version and system PFD populations. It delegates to the unified
// execution engine with a background context; see MonteCarloContext to
// make long runs cancellable.
func MonteCarlo(cfg MonteCarloConfig) (*MonteCarloResult, error) {
	return MonteCarloContext(context.Background(), cfg)
}

// MonteCarloContext is MonteCarlo under a context: a cancelled context
// stops the replication workers promptly and returns an error wrapping
// ctx.Err(). Configurations carry an opaque development process, so these
// runs bypass the engine's result cache; use RunJob with a Monte-Carlo
// job spec for cacheable runs.
func MonteCarloContext(ctx context.Context, cfg MonteCarloConfig) (*MonteCarloResult, error) {
	return engine.Default().RunConfig(ctx, cfg)
}

// PriorFromModel builds a Bayesian prior over the two-version system PFD
// from the fault-set model.
func PriorFromModel(fs *FaultSet, bins int) (*Distribution, error) {
	return bayes.PriorFromModel(fs, bins)
}

// UpdatePrior conditions a model prior on operational evidence: failures
// observed in a number of independent demands.
func UpdatePrior(prior *Distribution, demands, failures int) (*Posterior, error) {
	return bayes.Update(prior, demands, failures)
}

// DemandsForClaim returns the smallest number of consecutive failure-free
// demands after which the posterior supports the claim
// P(PFD <= bound) >= confidence — the assessor's test-planning question.
func DemandsForClaim(prior *Distribution, bound, confidence float64, maxDemands int) (int, error) {
	return bayes.DemandsForClaim(prior, bound, confidence, maxDemands)
}

// Named scenarios, re-exported from the scenario library.
var (
	// SafetyGradeScenario realises the Section-4 near-fault-free regime.
	SafetyGradeScenario = scenario.SafetyGrade
	// ManySmallFaultsScenario realises the Section-5 regime of very many
	// low-probability faults.
	ManySmallFaultsScenario = scenario.ManySmallFaults
	// CommercialGradeScenario is an intermediate regime.
	CommercialGradeScenario = scenario.CommercialGrade
	// LargeUniverseScenario builds an n-fault universe with grouped
	// presence probabilities and k ≈ 5 expected faults per version — the
	// regime the sparse Monte-Carlo kernel (MonteCarloConfig.Sparse) is
	// built for.
	LargeUniverseScenario = scenario.LargeUniverse
	// NVersionPoolScenario realises the failure-correlation regime of
	// LLM-generated N-version pools: a few shared blind-spot faults next
	// to a variant-specific tail, for adjudicated pool studies.
	NVersionPoolScenario = scenario.NVersionPool
)
