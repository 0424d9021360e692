package system

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"diversity/internal/faultmodel"
)

// This file defines the pluggable adjudicators. The paper's 1-out-of-2
// protection pair is the m = 2 point of a family: an N-version pool whose
// per-demand outputs are combined by a voting rule. Under the
// disjoint-region model every rule of practical interest is a threshold
// voter — a demand in the region of fault i defeats the system exactly
// when the number of versions carrying fault i reaches a rule-specific
// threshold — so adjudication per fault reduces to a popcount over the N
// stacked presence masks compared against that threshold, and closed
// forms reduce to binomial tail probabilities.

// Adjudicator is a voting rule combining N version outputs into one system
// output. Implementations must be pure values: Defeated must depend only
// on its arguments, and must be monotone in count (once enough versions
// carry a fault to defeat the system, more versions carrying it cannot
// rescue it). The simulation kernels rely on monotonicity to reduce a
// rule to its defeat threshold outside the hot loop.
type Adjudicator interface {
	// Name returns the canonical spec string for the rule, as accepted by
	// ParseAdjudicator: "1oon", "majority", "2oo3", ...
	Name() string
	// Defeated reports whether a fault carried by count of the n versions
	// defeats the adjudicated system on demands in its failure region.
	Defeated(count, n int) bool
	// Validate reports whether the rule is meaningful for an n-version
	// pool, returning a *VersionCountError if not.
	Validate(n int) error
}

// VersionCountError reports a version pool whose size the adjudicator
// cannot vote over — e.g. a 2oo3 rule applied to 2 versions. The server
// surfaces it as HTTP 400.
type VersionCountError struct {
	// Adjudicator is the canonical name of the rule.
	Adjudicator string
	// Versions is the offending pool size.
	Versions int
	// Reason states the constraint that was violated.
	Reason string
}

func (e *VersionCountError) Error() string {
	return fmt.Sprintf("system: adjudicator %s cannot vote over %d versions: %s", e.Adjudicator, e.Versions, e.Reason)
}

// OneOutOfN is the paper's parallel/OR protection arrangement generalised
// to N channels: the system fails on a demand only if every version fails,
// so a fault defeats the system exactly when all N versions carry it.
type OneOutOfN struct{}

// Name implements Adjudicator.
func (OneOutOfN) Name() string { return "1oon" }

// Defeated implements Adjudicator: only a fault common to all versions
// defeats the OR arrangement.
func (OneOutOfN) Defeated(count, n int) bool { return count == n }

// Validate implements Adjudicator: any non-empty pool can be OR-combined.
func (OneOutOfN) Validate(n int) error {
	if n < 1 {
		return &VersionCountError{Adjudicator: "1oon", Versions: n, Reason: "need at least 1 version"}
	}
	return nil
}

// MajorityVote is strict-majority N-version voting: the system fails when
// more than half the versions fail. For even pools a tie is adjudicated in
// the system's favour (a fault carried by exactly half the versions does
// not defeat it).
type MajorityVote struct{}

// Name implements Adjudicator.
func (MajorityVote) Name() string { return "majority" }

// Defeated implements Adjudicator.
func (MajorityVote) Defeated(count, n int) bool { return 2*count > n }

// Validate implements Adjudicator: a majority vote needs at least 3
// voters — over 1 or 2 versions it degenerates to the single version or
// the 1oo2 pair and should be spelled as such.
func (MajorityVote) Validate(n int) error {
	if n < 3 {
		return &VersionCountError{Adjudicator: "majority", Versions: n, Reason: "majority voting needs at least 3 versions"}
	}
	return nil
}

// KOutOfN is the general k-of-N arrangement: the system works on a demand
// when at least K of the N versions work, so a fault defeats it when the
// number of versions carrying the fault reaches N-K+1. Unlike
// MajorityVote, which adapts to whatever pool it is given, KOutOfN pins N:
// assembling a 2oo3 system from 2 versions is a *VersionCountError, the
// representability bug this type exists to close.
type KOutOfN struct {
	// K is the number of versions that must work.
	K int
	// N is the pool size the rule is defined over.
	N int
}

// Name implements Adjudicator.
func (a KOutOfN) Name() string { return fmt.Sprintf("%doo%d", a.K, a.N) }

// Defeated implements Adjudicator.
func (a KOutOfN) Defeated(count, n int) bool { return count >= a.N-a.K+1 }

// Validate implements Adjudicator.
func (a KOutOfN) Validate(n int) error {
	if a.N < 1 || a.K < 1 || a.K > a.N {
		return &VersionCountError{Adjudicator: a.Name(), Versions: n,
			Reason: fmt.Sprintf("rule requires 1 <= k <= n, got k=%d n=%d", a.K, a.N)}
	}
	if n != a.N {
		return &VersionCountError{Adjudicator: a.Name(), Versions: n,
			Reason: fmt.Sprintf("rule is defined over exactly %d versions", a.N)}
	}
	return nil
}

// ImperfectAdjudicator relaxes the paper's "perfect adjudication (simple
// OR combination of binary outputs)": it wraps a voting rule with an
// adjudication stage (voter hardware, actuation) that itself fails —
// independently of the software, per demand — with probability StagePFD.
// Voting is unchanged (Defeated delegates to the inner rule). The system
// misses a demand when either the software arrangement or the stage does,
// so ApplyStagePFD composes the stage onto a software PFD as
//
//	PFD_total = 1 - (1 - PFD_software)·(1 - StagePFD).
//
// The evaluation kernels and closed forms apply the composition
// automatically. The stage floors the total PFD at StagePFD no matter how
// diverse the pool, so software diversity beyond that floor buys nothing:
// the voter becomes the bottleneck (experiment E23).
type ImperfectAdjudicator struct {
	// Voter is the wrapped voting rule.
	Voter Adjudicator
	// StagePFD is the per-demand failure probability of the adjudication
	// stage (voter hardware/actuation), in [0, 1].
	StagePFD float64
}

// Name implements Adjudicator: the inner rule's name with an "@pfd"
// suffix, e.g. "2oo3@1e-4".
func (a ImperfectAdjudicator) Name() string {
	return fmt.Sprintf("%s@%s", a.Voter.Name(), strconv.FormatFloat(a.StagePFD, 'g', -1, 64))
}

// Defeated implements Adjudicator by delegating to the wrapped rule.
func (a ImperfectAdjudicator) Defeated(count, n int) bool { return a.Voter.Defeated(count, n) }

// Validate implements Adjudicator.
func (a ImperfectAdjudicator) Validate(n int) error {
	if a.Voter == nil {
		return &VersionCountError{Adjudicator: "imperfect", Versions: n, Reason: "no inner voting rule"}
	}
	if math.IsNaN(a.StagePFD) || a.StagePFD < 0 || a.StagePFD > 1 {
		return &VersionCountError{Adjudicator: a.Voter.Name(), Versions: n,
			Reason: fmt.Sprintf("stage PFD %v must be a probability", a.StagePFD)}
	}
	return a.Voter.Validate(n)
}

// ApplyStagePFD folds an imperfect adjudication stage into a software PFD:
// the identity 1 - (1-software)·(1-stage) for ImperfectAdjudicator, and
// software unchanged (bit for bit — no float operations) for every other
// rule.
func ApplyStagePFD(adj Adjudicator, software float64) float64 {
	if imp, ok := adj.(ImperfectAdjudicator); ok {
		return 1 - (1-software)*(1-imp.StagePFD)
	}
	return software
}

// VotingRule unwraps an ImperfectAdjudicator to its inner rule; other
// adjudicators are returned unchanged.
func VotingRule(adj Adjudicator) Adjudicator {
	if imp, ok := adj.(ImperfectAdjudicator); ok {
		return imp.Voter
	}
	return adj
}

// ParseAdjudicator maps a spec string to an adjudicator:
//
//	"", "1oom", "1oon"   →  OneOutOfN (the legacy default)
//	"majority"          →  MajorityVote
//	"KooN" (e.g. 2oo3)  →  KOutOfN{K, N}
//
// Any form may carry an "@pfd" suffix (e.g. "majority@1e-4") wrapping the
// rule in an ImperfectAdjudicator with the given stage PFD.
func ParseAdjudicator(spec string) (Adjudicator, error) {
	base := spec
	stage := ""
	if at := strings.IndexByte(spec, '@'); at >= 0 {
		base, stage = spec[:at], spec[at+1:]
	}
	var adj Adjudicator
	switch base {
	case "", "1oom", "1oon":
		adj = OneOutOfN{}
	case "majority":
		adj = MajorityVote{}
	default:
		k, n, ok := parseKooN(base)
		if !ok {
			return nil, fmt.Errorf("system: unknown adjudicator %q (want 1oon, majority, or KooN like 2oo3)", spec)
		}
		if k < 1 || n < 1 || k > n {
			return nil, fmt.Errorf("system: adjudicator %q requires 1 <= k <= n", spec)
		}
		adj = KOutOfN{K: k, N: n}
	}
	if stage != "" {
		pfd, err := strconv.ParseFloat(stage, 64)
		if err != nil || math.IsNaN(pfd) || pfd < 0 || pfd > 1 {
			return nil, fmt.Errorf("system: adjudicator stage PFD %q must be a probability", stage)
		}
		adj = ImperfectAdjudicator{Voter: adj, StagePFD: pfd}
	}
	return adj, nil
}

// parseKooN splits a "KooN" spec into its two integers.
func parseKooN(s string) (k, n int, ok bool) {
	sep := strings.Index(s, "oo")
	if sep <= 0 || sep+2 >= len(s) {
		return 0, 0, false
	}
	k, err := strconv.Atoi(s[:sep])
	if err != nil {
		return 0, 0, false
	}
	n, err = strconv.Atoi(s[sep+2:])
	if err != nil {
		return 0, 0, false
	}
	return k, n, true
}

// DefeatThreshold returns the smallest carrier count that defeats the
// rule over an n-version pool, or n+1 if no count does. It relies on the
// interface's monotonicity contract: the kernels hoist this scan out of
// their per-fault loops and compare popcounts against the threshold.
func DefeatThreshold(adj Adjudicator, n int) int {
	for c := 0; c <= n; c++ {
		if adj.Defeated(c, n) {
			return c
		}
	}
	return n + 1
}

// binomial returns C(n, c) exactly (as a float): the multiplicative
// recurrence keeps every intermediate an exactly representable integer for
// the pool sizes in scope.
func binomial(n, c int) float64 {
	if c > n-c {
		c = n - c
	}
	b := 1.0
	for i := 0; i < c; i++ {
		b = b * float64(n-i) / float64(i+1)
	}
	return b
}

// DefeatProbability returns the probability that a fault with presence
// probability p defeats the software stage of an n-version pool under the
// rule: P(Binomial(n, p) >= DefeatThreshold) = Σ C(n,c) p^c (1-p)^(n-c)
// over the defeated counts. For the 1-out-of-N rule this is exactly
// math.Pow(p, n) — the p_i^m of the paper's equations (1)-(2) — bit for
// bit, so the generalised closed forms agree with the legacy ones on the
// legacy arrangement. Imperfect stage failure is not per-fault and is NOT
// folded in here; see ApplyStagePFD.
func DefeatProbability(adj Adjudicator, n int, p float64) float64 {
	th := DefeatThreshold(VotingRule(adj), n)
	if th > n {
		return 0
	}
	d := 0.0
	for c := th; c <= n; c++ {
		d += binomial(n, c) * math.Pow(p, float64(c)) * math.Pow(1-p, float64(n-c))
	}
	return d
}

// MeanSystemPFD returns E[Θ] for an n-version pool under the rule — the
// k-of-N generalisation of the paper's equation (1): Σ d_i q_i with d_i
// the fault's defeat probability, plus the imperfect-stage composition
// when the rule carries one. It returns the rule's *VersionCountError for
// a pool it cannot vote over.
func MeanSystemPFD(fs *faultmodel.FaultSet, adj Adjudicator, n int) (float64, error) {
	if err := adj.Validate(n); err != nil {
		return 0, err
	}
	sum := 0.0
	for i := 0; i < fs.N(); i++ {
		f := fs.Fault(i)
		sum += DefeatProbability(adj, n, f.P) * f.Q
	}
	return ApplyStagePFD(adj, sum), nil
}

// PNoSystemFault returns P(the pool carries no defeating fault) =
// Π(1 - d_i) — the k-of-N generalisation of the Section-4 probability
// P(N_m = 0), bit for bit faultmodel's PNoFault for the 1-out-of-N rule.
// The imperfect stage concerns demands, not fault presence, so it does
// not enter this probability.
func PNoSystemFault(fs *faultmodel.FaultSet, adj Adjudicator, n int) (float64, error) {
	if err := adj.Validate(n); err != nil {
		return 0, err
	}
	prod := 1.0
	for i := 0; i < fs.N(); i++ {
		prod *= 1 - DefeatProbability(adj, n, fs.Fault(i).P)
	}
	return prod, nil
}

// PAnySystemFault returns P(the pool carries at least one defeating
// fault) = 1 - PNoSystemFault — the k-of-N generalisation of the
// Section-4 risk P(N_m > 0).
func PAnySystemFault(fs *faultmodel.FaultSet, adj Adjudicator, n int) (float64, error) {
	prod, err := PNoSystemFault(fs, adj, n)
	if err != nil {
		return 0, err
	}
	return 1 - prod, nil
}
