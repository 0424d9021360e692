package system

import (
	"errors"
	"math"
	"testing"

	"diversity/internal/faultmodel"
)

func TestParseAdjudicator(t *testing.T) {
	t.Parallel()

	cases := []struct {
		spec string
		want Adjudicator
	}{
		{"", OneOutOfN{}},
		{"1oom", OneOutOfN{}},
		{"1oon", OneOutOfN{}},
		{"majority", MajorityVote{}},
		{"2oo3", KOutOfN{K: 2, N: 3}},
		{"3oo5", KOutOfN{K: 3, N: 5}},
		{"1oo1", KOutOfN{K: 1, N: 1}},
		{"majority@1e-4", ImperfectAdjudicator{Voter: MajorityVote{}, StagePFD: 1e-4}},
		{"2oo3@0.001", ImperfectAdjudicator{Voter: KOutOfN{K: 2, N: 3}, StagePFD: 0.001}},
		{"1oon@0", ImperfectAdjudicator{Voter: OneOutOfN{}, StagePFD: 0}},
	}
	for _, tc := range cases {
		got, err := ParseAdjudicator(tc.spec)
		if err != nil {
			t.Errorf("ParseAdjudicator(%q): %v", tc.spec, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseAdjudicator(%q) = %#v, want %#v", tc.spec, got, tc.want)
		}
	}
	for _, bad := range []string{
		"sideways", "0oo3", "4oo3", "oo3", "2oo", "xoo3", "2oox",
		"majority@2", "majority@-0.5", "majority@NaN", "2oo3@x",
	} {
		if _, err := ParseAdjudicator(bad); err == nil {
			t.Errorf("ParseAdjudicator(%q) succeeded, want error", bad)
		}
	}
}

// TestAdjudicatorNamesRoundTrip: every rule's canonical Name parses back
// to the same rule, the contract the engine's job specs rely on.
func TestAdjudicatorNamesRoundTrip(t *testing.T) {
	t.Parallel()

	rules := []Adjudicator{
		OneOutOfN{}, MajorityVote{}, KOutOfN{K: 2, N: 3}, KOutOfN{K: 3, N: 5},
		ImperfectAdjudicator{Voter: MajorityVote{}, StagePFD: 1e-4},
		ImperfectAdjudicator{Voter: KOutOfN{K: 2, N: 4}, StagePFD: 0.25},
	}
	for _, rule := range rules {
		back, err := ParseAdjudicator(rule.Name())
		if err != nil {
			t.Errorf("ParseAdjudicator(%q): %v", rule.Name(), err)
			continue
		}
		if back != rule {
			t.Errorf("round trip of %q = %#v, want %#v", rule.Name(), back, rule)
		}
	}
}

func TestDefeatThreshold(t *testing.T) {
	t.Parallel()

	cases := []struct {
		adj  Adjudicator
		n    int
		want int
	}{
		{OneOutOfN{}, 1, 1},
		{OneOutOfN{}, 2, 2},
		{OneOutOfN{}, 5, 5},
		{MajorityVote{}, 3, 2},
		{MajorityVote{}, 4, 3}, // even pool: a tie does not defeat
		{MajorityVote{}, 5, 3},
		{KOutOfN{K: 2, N: 3}, 3, 2},
		{KOutOfN{K: 3, N: 5}, 5, 3},
		{KOutOfN{K: 5, N: 5}, 5, 1},
		{ImperfectAdjudicator{Voter: MajorityVote{}, StagePFD: 0.1}, 3, 2},
	}
	for _, tc := range cases {
		if got := DefeatThreshold(tc.adj, tc.n); got != tc.want {
			t.Errorf("DefeatThreshold(%s, %d) = %d, want %d", tc.adj.Name(), tc.n, got, tc.want)
		}
	}
}

// TestVersionCountValidation pins the typed error: rules reject pools they
// cannot vote over with a *VersionCountError carrying the offending size.
func TestVersionCountValidation(t *testing.T) {
	t.Parallel()

	cases := []struct {
		adj Adjudicator
		n   int
	}{
		{OneOutOfN{}, 0},
		{MajorityVote{}, 2},
		{MajorityVote{}, 1},
		{KOutOfN{K: 2, N: 3}, 2}, // the formerly representable 2oo3-over-2 bug
		{KOutOfN{K: 2, N: 3}, 4},
		{KOutOfN{K: 4, N: 3}, 3}, // k > n is never meaningful
		{ImperfectAdjudicator{Voter: MajorityVote{}, StagePFD: 0.5}, 2},
		{ImperfectAdjudicator{Voter: MajorityVote{}, StagePFD: 1.5}, 3}, // bad stage PFD
		{ImperfectAdjudicator{}, 3},                                     // no inner rule
	}
	for _, tc := range cases {
		err := tc.adj.Validate(tc.n)
		var vce *VersionCountError
		if !errors.As(err, &vce) {
			t.Errorf("%#v.Validate(%d) = %v, want *VersionCountError", tc.adj, tc.n, err)
			continue
		}
		if vce.Versions != tc.n {
			t.Errorf("VersionCountError.Versions = %d, want %d", vce.Versions, tc.n)
		}
	}
	for _, ok := range []struct {
		adj Adjudicator
		n   int
	}{
		{OneOutOfN{}, 1}, {OneOutOfN{}, 7}, {MajorityVote{}, 3}, {MajorityVote{}, 4},
		{KOutOfN{K: 2, N: 3}, 3}, {ImperfectAdjudicator{Voter: OneOutOfN{}, StagePFD: 0}, 2},
	} {
		if err := ok.adj.Validate(ok.n); err != nil {
			t.Errorf("%s.Validate(%d) = %v, want nil", ok.adj.Name(), ok.n, err)
		}
	}
}

// TestNewVotedVersionCountError: assembling a system over a pool the rule
// rejects surfaces the typed error through the constructor (the path the
// server maps to HTTP 400).
func TestNewVotedVersionCountError(t *testing.T) {
	t.Parallel()

	fs, vs := develop(t, []float64{0.01, 0.02}, [][]bool{
		{true, false},
		{false, true},
	})
	_, err := NewVoted(fs, KOutOfN{K: 2, N: 3}, vs...)
	var vce *VersionCountError
	if !errors.As(err, &vce) {
		t.Fatalf("NewVoted(2oo3, 2 versions) error = %v, want *VersionCountError", err)
	}
	if vce.Adjudicator != "2oo3" || vce.Versions != 2 {
		t.Errorf("error fields = %+v, want adjudicator 2oo3 over 2 versions", vce)
	}
	// A majority vote over 2 versions is the same typed error.
	if _, err := NewVoted(fs, MajorityVote{}, vs...); !errors.As(err, &vce) {
		t.Errorf("NewVoted(majority, 2 versions) error = %v, want *VersionCountError", err)
	}
	if _, err := NewVoted(fs, nil, vs...); err == nil {
		t.Error("nil adjudicator succeeded, want error")
	}
}

// TestDefeatProbabilityMatchesLegacyPow: for the 1-out-of-N rule the
// binomial tail collapses to a single term that must equal math.Pow(p, n)
// bit for bit — the compatibility contract that keeps the generalised
// closed forms identical to the paper's p_i^m on legacy arrangements.
func TestDefeatProbabilityMatchesLegacyPow(t *testing.T) {
	t.Parallel()

	for _, p := range []float64{0, 1e-9, 0.001, 0.3, 0.5, 0.77, 1} {
		for n := 1; n <= 6; n++ {
			got := DefeatProbability(OneOutOfN{}, n, p)
			want := math.Pow(p, float64(n))
			if got != want {
				t.Errorf("DefeatProbability(1oon, %d, %v) = %v, want math.Pow = %v (bit-exact)", n, p, got, want)
			}
		}
	}
}

// TestDefeatProbabilityAgainstEnumeration checks the binomial tail against
// brute-force enumeration of all 2^n presence patterns.
func TestDefeatProbabilityAgainstEnumeration(t *testing.T) {
	t.Parallel()

	rules := []Adjudicator{
		OneOutOfN{}, MajorityVote{}, KOutOfN{K: 2, N: 5}, KOutOfN{K: 4, N: 5},
	}
	for _, adj := range rules {
		n := 5
		th := DefeatThreshold(adj, n)
		for _, p := range []float64{0.01, 0.2, 0.5, 0.9} {
			want := 0.0
			for pattern := 0; pattern < 1<<n; pattern++ {
				carriers := 0
				prob := 1.0
				for v := 0; v < n; v++ {
					if pattern>>v&1 == 1 {
						carriers++
						prob *= p
					} else {
						prob *= 1 - p
					}
				}
				if carriers >= th {
					want += prob
				}
			}
			got := DefeatProbability(adj, n, p)
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("DefeatProbability(%s, %d, %v) = %v, enumeration = %v", adj.Name(), n, p, got, want)
			}
		}
	}
}

// TestMeanSystemPFDClosedForms checks the generalised equation-(1) sums
// against the paper's hand closed forms on a small universe: p_i^2 q_i for
// the pair, p_i^3 q_i for the triple, (3p²(1-p)+p³) q_i for 2oo3.
func TestMeanSystemPFDClosedForms(t *testing.T) {
	t.Parallel()

	fs, err := faultmodel.New([]faultmodel.Fault{
		{P: 0.3, Q: 0.05}, {P: 0.2, Q: 0.08}, {P: 0.15, Q: 0.04}, {P: 0.1, Q: 0.06},
	})
	if err != nil {
		t.Fatalf("faultmodel.New: %v", err)
	}
	var pair, triple, majority3 float64
	for i := 0; i < fs.N(); i++ {
		p, q := fs.Fault(i).P, fs.Fault(i).Q
		pair += p * p * q
		triple += p * p * p * q
		majority3 += (3*p*p*(1-p) + p*p*p) * q
	}
	cases := []struct {
		adj  Adjudicator
		n    int
		want float64
	}{
		{OneOutOfN{}, 2, pair},
		{OneOutOfN{}, 3, triple},
		{MajorityVote{}, 3, majority3},
		{KOutOfN{K: 2, N: 3}, 3, majority3},
	}
	for _, tc := range cases {
		got, err := MeanSystemPFD(fs, tc.adj, tc.n)
		if err != nil {
			t.Fatalf("MeanSystemPFD(%s, %d): %v", tc.adj.Name(), tc.n, err)
		}
		if math.Abs(got-tc.want) > 1e-15 {
			t.Errorf("MeanSystemPFD(%s, %d) = %v, want %v", tc.adj.Name(), tc.n, got, tc.want)
		}
	}
	// MeanPFD(m) must agree exactly with the 1oon closed form — same sum,
	// same order.
	mu2, err := fs.MeanPFD(2)
	if err != nil {
		t.Fatalf("MeanPFD: %v", err)
	}
	got, err := MeanSystemPFD(fs, OneOutOfN{}, 2)
	if err != nil {
		t.Fatalf("MeanSystemPFD: %v", err)
	}
	if got != mu2 {
		t.Errorf("MeanSystemPFD(1oon, 2) = %v, MeanPFD(2) = %v; want bit-exact agreement", got, mu2)
	}
	// The imperfect stage floors the mean at its own PFD.
	stage := ImperfectAdjudicator{Voter: MajorityVote{}, StagePFD: 0.01}
	withStage, err := MeanSystemPFD(fs, stage, 3)
	if err != nil {
		t.Fatalf("MeanSystemPFD(imperfect): %v", err)
	}
	want := 1 - (1-majority3)*(1-0.01)
	if math.Abs(withStage-want) > 1e-15 {
		t.Errorf("imperfect-stage mean = %v, want %v", withStage, want)
	}
	// Invalid pool size propagates the typed error.
	if _, err := MeanSystemPFD(fs, MajorityVote{}, 2); err == nil {
		t.Error("MeanSystemPFD(majority, 2) succeeded, want error")
	}
}

func TestPAnySystemFault(t *testing.T) {
	t.Parallel()

	fs, err := faultmodel.New([]faultmodel.Fault{
		{P: 0.3, Q: 0.05}, {P: 0.2, Q: 0.08}, {P: 0.15, Q: 0.04}, {P: 0.1, Q: 0.06},
	})
	if err != nil {
		t.Fatalf("faultmodel.New: %v", err)
	}
	// 1oon must reproduce the paper's P(N_m = 0) = Π(1 - p_i^m) and
	// P(N_m > 0) bit for bit: the reports print these for the default rule.
	for m := 1; m <= 3; m++ {
		wantNo, err := fs.PNoFault(m)
		if err != nil {
			t.Fatalf("PNoFault: %v", err)
		}
		gotNo, err := PNoSystemFault(fs, OneOutOfN{}, m)
		if err != nil {
			t.Fatalf("PNoSystemFault: %v", err)
		}
		if gotNo != wantNo {
			t.Errorf("PNoSystemFault(1oon, %d) = %v, PNoFault = %v", m, gotNo, wantNo)
		}
		want, err := fs.PAnyFault(m)
		if err != nil {
			t.Fatalf("PAnyFault: %v", err)
		}
		got, err := PAnySystemFault(fs, OneOutOfN{}, m)
		if err != nil {
			t.Fatalf("PAnySystemFault: %v", err)
		}
		if got != want {
			t.Errorf("PAnySystemFault(1oon, %d) = %v, PAnyFault = %v", m, got, want)
		}
	}
	// Majority over 3 is defeated more easily than 1oo3, so its any-fault
	// probability is at least as large.
	maj, err := PAnySystemFault(fs, MajorityVote{}, 3)
	if err != nil {
		t.Fatalf("PAnySystemFault(majority): %v", err)
	}
	oneOf3, err := PAnySystemFault(fs, OneOutOfN{}, 3)
	if err != nil {
		t.Fatalf("PAnySystemFault(1oo3): %v", err)
	}
	if maj < oneOf3 {
		t.Errorf("P(any majority-defeating fault) %v < P(any 1oo3 fault) %v", maj, oneOf3)
	}
	if _, err := PAnySystemFault(fs, KOutOfN{K: 2, N: 3}, 2); err == nil {
		t.Error("invalid pool size succeeded, want error")
	}
}

// TestApplyStagePFDIdentity: plain rules must return the software PFD
// unchanged — the same float64, no arithmetic — so legacy outputs stay
// bitwise stable.
func TestApplyStagePFDIdentity(t *testing.T) {
	t.Parallel()

	for _, v := range []float64{0, 0.1 + 0.2, 1e-300, 0.9999999999999999} {
		if got := ApplyStagePFD(OneOutOfN{}, v); got != v {
			t.Errorf("ApplyStagePFD(1oon, %v) = %v, want the input unchanged", v, got)
		}
		if got := ApplyStagePFD(MajorityVote{}, v); got != v {
			t.Errorf("ApplyStagePFD(majority, %v) = %v, want the input unchanged", v, got)
		}
	}
	got := ApplyStagePFD(ImperfectAdjudicator{Voter: OneOutOfN{}, StagePFD: 0.25}, 0.5)
	if want := 1 - (1-0.5)*(1-0.25); got != want {
		t.Errorf("ApplyStagePFD(imperfect) = %v, want %v", got, want)
	}
}

func TestVotingRuleUnwrap(t *testing.T) {
	t.Parallel()

	inner := KOutOfN{K: 2, N: 3}
	if got := VotingRule(ImperfectAdjudicator{Voter: inner, StagePFD: 0.1}); got != inner {
		t.Errorf("VotingRule(imperfect) = %#v, want inner rule", got)
	}
	if got := VotingRule(inner); got != inner {
		t.Errorf("VotingRule(plain) = %#v, want unchanged", got)
	}
}
