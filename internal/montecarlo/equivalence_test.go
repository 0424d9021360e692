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

// TestPipelineMatchesVersionAPI holds the tile loop to reference
// implementations on block 0's stream, bit for bit: every replication's
// version and system PFD and both fault-free counts, for every process
// and voting rule, buffered and streaming. A one-replication run is one
// one-lane tile, whose versions are exactly Develop's, so at every seed
// it must reproduce Develop → system.NewVoted → PFD()/SystemFaultCount().
// A longer run must reproduce a loop that develops 64-lane tiles with
// DevelopRows, sets each lane's bits into devsim.Bitset columns and
// scores them with BitsetPFD/BitsetSystemPFD, which the system package's
// tests hold to NewVoted. The tied process ties pairs across bitset
// words.
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
	procs := []developer{devsim.NewIndependentProcess(fs), cc, rs, tied}
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
			for s := uint64(1); s <= 40; s++ {
				assertPipelineMatches(t, fmt.Sprintf("%s one-lane seed %d", label, s), Config{Process: proc}, adj, m, 1, s, versionReference(t, proc, adj, m, 1, s))
			}
			assertPipelineMatches(t, label+" rows", Config{Process: proc}, adj, m, reps, seed, rowReference(t, proc, adj, m, reps, seed))
		}
	}
}

// pipelineReference is one reference population: each replication's
// version and system PFD, and the (version, system) fault-free counts.
type pipelineReference struct {
	v, s []float64
	free [2]int
}

// add records one replication.
func (ref *pipelineReference) add(v, s float64, vFaults, sFaults int) {
	ref.v, ref.s = append(ref.v, v), append(ref.s, s)
	if vFaults == 0 {
		ref.free[0]++
	}
	if sFaults == 0 {
		ref.free[1]++
	}
}

// developer is a process with a Develop method: every devsim process.
type developer interface {
	devsim.Process
	Develop(r *randx.Stream) *devsim.Version
}

// versionReference develops reps replications of m versions on block 0's
// stream with Develop and scores them with system.NewVoted.
func versionReference(t *testing.T, proc developer, adj system.Adjudicator, m, reps int, seed uint64) pipelineReference {
	t.Helper()
	r := randx.NewStream(0)
	r.SeedAt(seed, 0) // reps fits in block 0
	var ref pipelineReference
	versions := make([]*devsim.Version, m)
	for rep := 0; rep < reps; rep++ {
		for i := range versions {
			versions[i] = proc.Develop(r)
		}
		sys, err := system.NewVoted(proc.FaultSet(), adj, versions...)
		if err != nil {
			t.Fatalf("NewVoted: %v", err)
		}
		ref.add(versions[0].PFD(), sys.PFD(), versions[0].FaultCount(), sys.SystemFaultCount())
	}
	return ref
}

// rowReference develops reps replications of m versions on block 0's
// stream in 64-lane DevelopRows tiles, moves each lane into bitset
// columns and scores them with the bitset PFD walks.
func rowReference(t *testing.T, proc devsim.Process, adj system.Adjudicator, m, reps int, seed uint64) pipelineReference {
	t.Helper()
	fs := proc.FaultSet()
	r := randx.NewStream(0)
	r.SeedAt(seed, 0) // reps fits in block 0
	var ref pipelineReference
	scratch := make([][]uint64, m)
	rows := make([][]uint64, m)
	for v := range scratch {
		scratch[v] = make([]uint64, devsim.BatchScratchLen(64, fs.N()))
	}
	cols := make([]*devsim.Bitset, m)
	for base := 0; base < reps; base += 64 {
		b := min(64, reps-base)
		for v := range rows {
			rows[v] = proc.DevelopRows(r, b, scratch[v])
		}
		for j := 0; j < b; j++ {
			for v := range cols {
				cols[v] = devsim.NewBitset(fs.N())
				for i, word := range rows[v] {
					if word>>uint(j)&1 == 1 {
						cols[v].Set(i)
					}
				}
			}
			vpfd, vcount := devsim.BitsetPFD(fs, cols[0])
			spfd, scount := system.BitsetSystemPFD(fs, adj, cols)
			ref.add(vpfd, spfd, vcount, scount)
		}
	}
	return ref
}

// assertPipelineMatches runs cfg buffered and streaming over one block
// and requires both to reproduce the reference bit for bit.
func assertPipelineMatches(t *testing.T, label string, cfg Config, adj system.Adjudicator, m, reps int, seed uint64, ref pipelineReference) {
	t.Helper()
	var wantAggV, wantAggS Agg
	for rep := range ref.v {
		wantAggV.Observe(ref.v[rep])
		wantAggS.Observe(ref.s[rep])
	}
	for _, streaming := range []bool{false, true} {
		cfg.Versions, cfg.Adjudicator, cfg.Reps, cfg.Workers, cfg.Seed, cfg.Streaming = m, adj, reps, 1, seed, streaming
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s streaming=%v: %v", label, streaming, err)
		}
		if got := [2]int{res.VersionFaultFree, res.SystemFaultFree}; got != ref.free {
			t.Errorf("%s streaming=%v: fault-free counts %v, reference %v", label, streaming, got, ref.free)
		}
		if streaming {
			if *res.VersionAgg != wantAggV || *res.SystemAgg != wantAggS {
				t.Errorf("%s: streaming aggregates differ from the reference population", label)
			}
			continue
		}
		for rep := range ref.v {
			if math.Float64bits(res.VersionPFD[rep]) != math.Float64bits(ref.v[rep]) ||
				math.Float64bits(res.SystemPFD[rep]) != math.Float64bits(ref.s[rep]) {
				t.Fatalf("%s rep %d: pipeline (%v, %v), reference (%v, %v)", label, rep,
					res.VersionPFD[rep], res.SystemPFD[rep], ref.v[rep], ref.s[rep])
			}
		}
	}
}
