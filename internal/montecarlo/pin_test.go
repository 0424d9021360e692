package montecarlo

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"diversity/internal/devsim"
	"diversity/internal/faultmodel"
	"diversity/internal/system"
)

// runDigest fingerprints everything a run reports about its sampled
// population: the raw samples of a buffered run or the full aggregates
// (moments, extremes, histogram) of a streaming run, plus the fault-free
// counts and skip draws. %v renders floats in their shortest exact form,
// so equal digests mean bitwise-equal results.
func runDigest(res *Result) string {
	var body string
	if res.Streaming {
		body = fmt.Sprintf("%v|%v", *res.VersionAgg, *res.SystemAgg)
	} else {
		body = fmt.Sprintf("%v|%v", res.VersionPFD, res.SystemPFD)
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s|%d|%d|%d", body, res.VersionFaultFree, res.SystemFaultFree, res.SparseSkips)))
	return fmt.Sprintf("%x", sum[:8])
}

// TestRunBitPins pins every replication mode of RunContext bit for bit:
// the four development processes × two voting rules × {dense, sparse,
// batched} × {buffered, streaming}, over a 150-fault universe whose tied
// pairs cross bitset words. The digests were captured before the modes
// were unified into one tile loop.
func TestRunBitPins(t *testing.T) {
	t.Parallel()

	faults := make([]faultmodel.Fault, 150)
	for i := range faults {
		faults[i] = faultmodel.Fault{P: 0.02 + 0.3*float64(i%7)/7, Q: 0.5 / 150}
	}
	fs, err := faultmodel.New(faults)
	if err != nil {
		t.Fatalf("faultmodel.New: %v", err)
	}
	cc, err := devsim.NewCommonCauseProcess(fs, 0.2, 2)
	if err != nil {
		t.Fatalf("NewCommonCauseProcess: %v", err)
	}
	rs, err := devsim.NewResourceShiftProcess(fs, 0.5)
	if err != nil {
		t.Fatalf("NewResourceShiftProcess: %v", err)
	}
	tied, err := devsim.NewTiedPairsProcess(fs, [][2]int{{0, 100}, {5, 70}, {64, 127}})
	if err != nil {
		t.Fatalf("NewTiedPairsProcess: %v", err)
	}
	procs := []struct {
		name string
		proc devsim.Process
	}{
		{"independent", devsim.NewIndependentProcess(fs)},
		{"common-cause", cc},
		{"resource-shift", rs},
		{"tied", tied},
	}
	pools := []struct {
		versions int
		adj      system.Adjudicator
	}{
		{2, system.OneOutOfN{}},
		{3, system.KOutOfN{K: 2, N: 3}},
	}
	modes := []struct {
		name   string
		sparse bool
		width  int
	}{
		{"dense", false, 0},
		{"sparse", true, 0},
		{"batched", false, 64},
	}
	for _, p := range procs {
		for _, pool := range pools {
			for _, mode := range modes {
				for _, streaming := range []bool{false, true} {
					key := fmt.Sprintf("%s/%s/%s/streaming=%v", p.name, pool.adj.Name(), mode.name, streaming)
					res, err := Run(Config{
						Process: p.proc, Versions: pool.versions, Adjudicator: pool.adj,
						Reps: 3000, Workers: 2, Seed: 8, Streaming: streaming,
						Sparse: mode.sparse, BatchWidth: mode.width,
					})
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					if got, want := runDigest(res), runPins[key]; got != want {
						t.Errorf("%q: %q, // pinned %q", key, got, want)
					}
				}
			}
		}
	}
}

var runPins = map[string]string{
	"independent/1oon/dense/streaming=false":      "3ba3a4e79190884d",
	"independent/1oon/dense/streaming=true":       "7e7469dc1dbaad52",
	"independent/1oon/sparse/streaming=false":     "3208b58179847344",
	"independent/1oon/sparse/streaming=true":      "308a8a6f0f889dbe",
	"independent/1oon/batched/streaming=false":    "18d305f2395d02d1",
	"independent/1oon/batched/streaming=true":     "d7a79b345867aa08",
	"independent/2oo3/dense/streaming=false":      "ec1367ed63a8aa51",
	"independent/2oo3/dense/streaming=true":       "beeaff9fcdff74f6",
	"independent/2oo3/sparse/streaming=false":     "a6ed3350a47cc14d",
	"independent/2oo3/sparse/streaming=true":      "6bf23f6ab069d2e6",
	"independent/2oo3/batched/streaming=false":    "10db1fed1f517a5d",
	"independent/2oo3/batched/streaming=true":     "669d3de941af2c3d",
	"common-cause/1oon/dense/streaming=false":     "b9e76616bfa0f1b0",
	"common-cause/1oon/dense/streaming=true":      "3a5273e7fa18525d",
	"common-cause/1oon/sparse/streaming=false":    "b9e76616bfa0f1b0",
	"common-cause/1oon/sparse/streaming=true":     "3a5273e7fa18525d",
	"common-cause/1oon/batched/streaming=false":   "93ba6834a343d4cd",
	"common-cause/1oon/batched/streaming=true":    "ca48ee042bb2f013",
	"common-cause/2oo3/dense/streaming=false":     "82e4430eecfadfb7",
	"common-cause/2oo3/dense/streaming=true":      "30d1b982cc53778c",
	"common-cause/2oo3/sparse/streaming=false":    "82e4430eecfadfb7",
	"common-cause/2oo3/sparse/streaming=true":     "30d1b982cc53778c",
	"common-cause/2oo3/batched/streaming=false":   "fbdafce305b33e6c",
	"common-cause/2oo3/batched/streaming=true":    "b3639cf82c56ec57",
	"resource-shift/1oon/dense/streaming=false":   "25db5c96ae541e84",
	"resource-shift/1oon/dense/streaming=true":    "14430ac644c5070e",
	"resource-shift/1oon/sparse/streaming=false":  "25db5c96ae541e84",
	"resource-shift/1oon/sparse/streaming=true":   "14430ac644c5070e",
	"resource-shift/1oon/batched/streaming=false": "1660131ef58d8ebb",
	"resource-shift/1oon/batched/streaming=true":  "771fa4a4fbb649c7",
	"resource-shift/2oo3/dense/streaming=false":   "00db663ccc6e9524",
	"resource-shift/2oo3/dense/streaming=true":    "a77903e7b2f3f75c",
	"resource-shift/2oo3/sparse/streaming=false":  "00db663ccc6e9524",
	"resource-shift/2oo3/sparse/streaming=true":   "a77903e7b2f3f75c",
	"resource-shift/2oo3/batched/streaming=false": "eba52c579de63286",
	"resource-shift/2oo3/batched/streaming=true":  "995fb3bb5aa16634",
	"tied/1oon/dense/streaming=false":             "f090652d91eb23f2",
	"tied/1oon/dense/streaming=true":              "c2ff56182acac518",
	"tied/1oon/sparse/streaming=false":            "f090652d91eb23f2",
	"tied/1oon/sparse/streaming=true":             "c2ff56182acac518",
	"tied/1oon/batched/streaming=false":           "ec08360fab40cbb5",
	"tied/1oon/batched/streaming=true":            "14695c631f56d9cd",
	"tied/2oo3/dense/streaming=false":             "14a0ce7b21059920",
	"tied/2oo3/dense/streaming=true":              "228a335198b400d4",
	"tied/2oo3/sparse/streaming=false":            "14a0ce7b21059920",
	"tied/2oo3/sparse/streaming=true":             "228a335198b400d4",
	"tied/2oo3/batched/streaming=false":           "bec302c2c1ffd2da",
	"tied/2oo3/batched/streaming=true":            "7b0c0287687fd883",
}
