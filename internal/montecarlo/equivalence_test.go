package montecarlo

import (
	"fmt"
	"math"
	"testing"

	"diversity/internal/devsim"
	"diversity/internal/faultmodel"
	"diversity/internal/randx"
	"diversity/internal/system"
)

// TestPipelineMatchesVersionAPI holds the tile loop to the *Version
// reference implementation: on block 0's stream, Develop →
// system.NewVoted → PFD()/SystemFaultCount() must reproduce every
// replication's version and system PFD and both fault-free counts bit for
// bit, for every process and voting rule, buffered and streaming. The
// tied process ties pairs across bitset words, so partners are set from
// an earlier word's stored bits.
func TestPipelineMatchesVersionAPI(t *testing.T) {
	t.Parallel()

	faults := make([]faultmodel.Fault, 150)
	for i := range faults {
		faults[i] = faultmodel.Fault{P: 0.01 + 0.12*float64(i%9)/9, Q: (1 + float64(i%4)) / 600}
	}
	fs, err := faultmodel.New(faults)
	if err != nil {
		t.Fatalf("faultmodel.New: %v", err)
	}
	cc, err := devsim.NewCommonCauseProcess(fs, 0.3, 2.5)
	if err != nil {
		t.Fatalf("NewCommonCauseProcess: %v", err)
	}
	rs, err := devsim.NewResourceShiftProcess(fs, 0.6)
	if err != nil {
		t.Fatalf("NewResourceShiftProcess: %v", err)
	}
	tied, err := devsim.NewTiedPairsProcess(fs, [][2]int{{0, 100}, {63, 64}, {20, 149}})
	if err != nil {
		t.Fatalf("NewTiedPairsProcess: %v", err)
	}
	procs := []devsim.Process{devsim.NewIndependentProcess(fs), cc, rs, tied}
	const reps, seed = 400, 31
	for pi, proc := range procs {
		for _, spec := range []string{"1oo2", "2oo3", "majority", "1oo2@1e-4"} {
			adj, err := system.ParseAdjudicator(spec)
			if err != nil {
				t.Fatalf("ParseAdjudicator(%q): %v", spec, err)
			}
			m := 3
			if spec == "1oo2" || spec == "1oo2@1e-4" {
				m = 2
			}
			label := fmt.Sprintf("process %d %s", pi, spec)

			r := randx.NewStream(0)
			r.SeedAt(seed, 0) // reps fits in block 0
			wantV := make([]float64, reps)
			wantS := make([]float64, reps)
			var wantAggV, wantAggS Agg
			wantFree := [2]int{}
			versions := make([]*devsim.Version, m)
			for rep := 0; rep < reps; rep++ {
				for i := range versions {
					versions[i] = proc.Develop(r)
				}
				sys, err := system.NewVoted(fs, adj, versions...)
				if err != nil {
					t.Fatalf("%s: NewVoted: %v", label, err)
				}
				wantV[rep], wantS[rep] = versions[0].PFD(), sys.PFD()
				wantAggV.Observe(wantV[rep])
				wantAggS.Observe(wantS[rep])
				if versions[0].FaultCount() == 0 {
					wantFree[0]++
				}
				if sys.SystemFaultCount() == 0 {
					wantFree[1]++
				}
			}

			for _, streaming := range []bool{false, true} {
				res, err := Run(Config{
					Process: proc, Versions: m, Adjudicator: adj,
					Reps: reps, Workers: 1, Seed: seed, Streaming: streaming,
				})
				if err != nil {
					t.Fatalf("%s streaming=%v: %v", label, streaming, err)
				}
				if got := [2]int{res.VersionFaultFree, res.SystemFaultFree}; got != wantFree {
					t.Errorf("%s streaming=%v: fault-free counts %v, reference %v", label, streaming, got, wantFree)
				}
				if streaming {
					if *res.VersionAgg != wantAggV || *res.SystemAgg != wantAggS {
						t.Errorf("%s: streaming aggregates differ from the reference population", label)
					}
					continue
				}
				for rep := range wantV {
					if math.Float64bits(res.VersionPFD[rep]) != math.Float64bits(wantV[rep]) ||
						math.Float64bits(res.SystemPFD[rep]) != math.Float64bits(wantS[rep]) {
						t.Fatalf("%s rep %d: pipeline (%v, %v), reference (%v, %v)", label, rep,
							res.VersionPFD[rep], res.SystemPFD[rep], wantV[rep], wantS[rep])
					}
				}
			}
		}
	}
}
