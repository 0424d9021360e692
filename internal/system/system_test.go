package system

import (
	"errors"
	"math"
	"testing"

	"diversity/internal/devsim"
	"diversity/internal/faultmodel"
	"diversity/internal/randx"
)

// develop returns versions from deterministic fault sets: certainty[i][j]
// says whether version i contains fault j, achieved by p in {0, 1}.
func develop(t *testing.T, qs []float64, masks [][]bool) (*faultmodel.FaultSet, []*devsim.Version) {
	t.Helper()
	faults := make([]faultmodel.Fault, len(qs))
	for j := range qs {
		faults[j] = faultmodel.Fault{P: 0.5, Q: qs[j]}
	}
	fs, err := faultmodel.New(faults)
	if err != nil {
		t.Fatalf("faultmodel.New: %v", err)
	}
	versions := make([]*devsim.Version, len(masks))
	r := randx.NewStream(1)
	for i, mask := range masks {
		detFaults := make([]faultmodel.Fault, len(qs))
		for j := range qs {
			p := 0.0
			if mask[j] {
				p = 1
			}
			detFaults[j] = faultmodel.Fault{P: p, Q: qs[j]}
		}
		detSet, err := faultmodel.New(detFaults)
		if err != nil {
			t.Fatalf("faultmodel.New: %v", err)
		}
		versions[i] = devsim.NewIndependentProcess(detSet).Develop(r)
	}
	return fs, versions
}

func TestOneOutOfTwoPFDIsIntersection(t *testing.T) {
	t.Parallel()

	fs, vs := develop(t,
		[]float64{0.01, 0.02, 0.04},
		[][]bool{
			{true, true, false},
			{false, true, true},
		})
	sys, err := NewVoted(fs, OneOutOfN{}, vs...)
	if err != nil {
		t.Fatalf("NewVoted: %v", err)
	}
	// Only fault 1 is common.
	if got := sys.PFD(); math.Abs(got-0.02) > 1e-15 {
		t.Errorf("1oo2 PFD = %v, want 0.02", got)
	}
	if got := sys.SystemFaultCount(); got != 1 {
		t.Errorf("SystemFaultCount = %d, want 1", got)
	}
	if sys.NumVersions() != 2 || sys.Adjudicator() != (OneOutOfN{}) {
		t.Errorf("metadata wrong: %d versions, adjudicator %#v", sys.NumVersions(), sys.Adjudicator())
	}
}

func TestOneOutOfTwoMatchesCommonPFD(t *testing.T) {
	t.Parallel()

	faults := []faultmodel.Fault{
		{P: 0.3, Q: 0.05}, {P: 0.5, Q: 0.1}, {P: 0.2, Q: 0.15},
	}
	fs, err := faultmodel.New(faults)
	if err != nil {
		t.Fatalf("faultmodel.New: %v", err)
	}
	proc := devsim.NewIndependentProcess(fs)
	r := randx.NewStream(5)
	for trial := 0; trial < 200; trial++ {
		a := proc.Develop(r)
		b := proc.Develop(r)
		sys, err := NewVoted(fs, OneOutOfN{}, a, b)
		if err != nil {
			t.Fatalf("NewVoted: %v", err)
		}
		want, err := devsim.CommonPFD(fs, a, b)
		if err != nil {
			t.Fatalf("CommonPFD: %v", err)
		}
		if math.Abs(sys.PFD()-want) > 1e-15 {
			t.Fatalf("trial %d: system PFD %v != common PFD %v", trial, sys.PFD(), want)
		}
	}
}

func TestSingleVersionSystem(t *testing.T) {
	t.Parallel()

	fs, vs := develop(t, []float64{0.01, 0.02}, [][]bool{{true, false}})
	sys, err := NewVoted(fs, OneOutOfN{}, vs...)
	if err != nil {
		t.Fatalf("NewVoted: %v", err)
	}
	if got := sys.PFD(); math.Abs(got-0.01) > 1e-15 {
		t.Errorf("single-version PFD = %v, want 0.01 (the version's own PFD)", got)
	}
	if got := vs[0].PFD(); math.Abs(got-sys.PFD()) > 1e-15 {
		t.Errorf("system PFD %v != version PFD %v", sys.PFD(), got)
	}
}

func TestMajorityTwoOutOfThree(t *testing.T) {
	t.Parallel()

	fs, vs := develop(t,
		[]float64{0.01, 0.02, 0.04, 0.08},
		[][]bool{
			{true, true, false, true},
			{true, false, true, false},
			{false, false, true, false},
		})
	sys, err := NewVoted(fs, MajorityVote{}, vs...)
	if err != nil {
		t.Fatalf("NewVoted: %v", err)
	}
	// Fault 0: in 2/3 -> fails. Fault 1: 1/3 -> ok. Fault 2: 2/3 -> fails.
	// Fault 3: 1/3 -> ok. PFD = 0.01+0.04.
	if got := sys.PFD(); math.Abs(got-0.05) > 1e-15 {
		t.Errorf("majority PFD = %v, want 0.05", got)
	}
}

// TestMajorityThreeVersionsWorseThan1oo3 checks the architectures are
// ordered as expected: majority voting needs >half failures, 1-out-of-3
// needs all three, so 1oo3 never has higher PFD.
func TestMajorityThreeVersionsWorseThan1oo3(t *testing.T) {
	t.Parallel()

	faults := []faultmodel.Fault{
		{P: 0.4, Q: 0.05}, {P: 0.6, Q: 0.1}, {P: 0.3, Q: 0.15},
	}
	fs, err := faultmodel.New(faults)
	if err != nil {
		t.Fatalf("faultmodel.New: %v", err)
	}
	proc := devsim.NewIndependentProcess(fs)
	r := randx.NewStream(9)
	for trial := 0; trial < 300; trial++ {
		a, b, c := proc.Develop(r), proc.Develop(r), proc.Develop(r)
		oneOf, err := NewVoted(fs, OneOutOfN{}, a, b, c)
		if err != nil {
			t.Fatalf("NewVoted: %v", err)
		}
		maj, err := NewVoted(fs, MajorityVote{}, a, b, c)
		if err != nil {
			t.Fatalf("NewVoted: %v", err)
		}
		if oneOf.PFD() > maj.PFD()+1e-15 {
			t.Fatalf("trial %d: 1oo3 PFD %v exceeds majority PFD %v", trial, oneOf.PFD(), maj.PFD())
		}
	}
}

func TestNewValidation(t *testing.T) {
	t.Parallel()

	fs, vs := develop(t, []float64{0.01}, [][]bool{{true}})
	if _, err := NewVoted(fs, OneOutOfN{}); !errors.Is(err, ErrNoVersions) {
		t.Errorf("no versions error = %v, want ErrNoVersions", err)
	}
	if _, err := NewVoted(fs, OneOutOfN{}, vs...); err != nil {
		t.Errorf("valid pool: %v", err)
	}
	// Mismatched universe.
	_, otherVs := develop(t, []float64{0.01, 0.02}, [][]bool{{true, false}})
	if _, err := NewVoted(fs, OneOutOfN{}, otherVs...); err == nil {
		t.Error("mismatched universe succeeded, want error")
	}
}

// TestPFDWithAdjudicator: an imperfect adjudication stage composes onto the
// software PFD as 1 - (1-software)·(1-stage), a perfect stage leaves the
// paper's PFD unchanged, and a stage PFD outside [0, 1] is rejected.
func TestPFDWithAdjudicator(t *testing.T) {
	t.Parallel()

	fs, vs := develop(t, []float64{0.01, 0.02}, [][]bool{
		{true, true},
		{false, true},
	})
	software, err := NewVoted(fs, OneOutOfN{}, vs...)
	if err != nil {
		t.Fatalf("NewVoted: %v", err)
	}
	for _, stage := range []float64{0, 0.001, 1} {
		sys, err := NewVoted(fs, ImperfectAdjudicator{Voter: OneOutOfN{}, StagePFD: stage}, vs...)
		if err != nil {
			t.Fatalf("NewVoted(stage %v): %v", stage, err)
		}
		want := 1 - (1-software.PFD())*(1-stage)
		if got := sys.PFD(); math.Abs(got-want) > 1e-15 {
			t.Errorf("stage %v: PFD = %v, want %v", stage, got, want)
		}
	}
	for _, bad := range []float64{-0.1, 1.5, math.NaN()} {
		if _, err := NewVoted(fs, ImperfectAdjudicator{Voter: OneOutOfN{}, StagePFD: bad}, vs...); err == nil {
			t.Errorf("stage PFD %v succeeded, want error", bad)
		}
	}
}

// TestAdjudicatorFloor: with no defeating fault the stage alone floors the
// total PFD.
func TestAdjudicatorFloor(t *testing.T) {
	t.Parallel()

	fs, clean := develop(t, []float64{0.01, 0.02}, [][]bool{
		{true, false},
		{false, true},
	})
	floored, err := NewVoted(fs, ImperfectAdjudicator{Voter: OneOutOfN{}, StagePFD: 0.0005}, clean...)
	if err != nil {
		t.Fatalf("NewVoted: %v", err)
	}
	if got := floored.PFD(); math.Abs(got-0.0005) > 1e-15 {
		t.Errorf("fault-free pool PFD = %v, want the stage floor 0.0005", got)
	}
}
