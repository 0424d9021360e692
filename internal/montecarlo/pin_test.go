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
// pairs cross bitset words. Each key has one pin for every worker count:
// the run spans five blocks, so 2 and 3 workers claim them out of order
// and 8 workers leave some idle.
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
					for _, workers := range []int{1, 2, 3, 8} {
						res, err := Run(Config{
							Process: p.proc, Versions: pool.versions, Adjudicator: pool.adj,
							Reps: 4*blockSize + 300, Workers: workers, Seed: 8, Streaming: streaming,
							Sparse: mode.sparse, BatchWidth: mode.width,
						})
						if err != nil {
							t.Fatalf("%s: %v", key, err)
						}
						if got, want := runDigest(res), runPins[key]; got != want {
							t.Errorf("%q: %q, // pinned %q (workers %d)", key, got, want, workers)
						}
					}
				}
			}
		}
	}
}

var runPins = map[string]string{
	"independent/1oon/dense/streaming=false":      "0f6e97e093d50cae",
	"independent/1oon/dense/streaming=true":       "45534e9cddd987e8",
	"independent/1oon/sparse/streaming=false":     "e59024f60aee6e6c",
	"independent/1oon/sparse/streaming=true":      "d6d8642ddaa0eae5",
	"independent/1oon/batched/streaming=false":    "fd625dc627fb6d75",
	"independent/1oon/batched/streaming=true":     "b122c5683c376120",
	"independent/2oo3/dense/streaming=false":      "a08c86b376751b17",
	"independent/2oo3/dense/streaming=true":       "25ad0809bf3934cf",
	"independent/2oo3/sparse/streaming=false":     "82ae5e420ecf1cb2",
	"independent/2oo3/sparse/streaming=true":      "55352048977f5409",
	"independent/2oo3/batched/streaming=false":    "f4ff2cc63a5c7131",
	"independent/2oo3/batched/streaming=true":     "3d5359e2d879fa6e",
	"common-cause/1oon/dense/streaming=false":     "e8ad255d31c2843b",
	"common-cause/1oon/dense/streaming=true":      "c7560f50aa3c9fdc",
	"common-cause/1oon/sparse/streaming=false":    "e8ad255d31c2843b",
	"common-cause/1oon/sparse/streaming=true":     "c7560f50aa3c9fdc",
	"common-cause/1oon/batched/streaming=false":   "672969bb3b84c06b",
	"common-cause/1oon/batched/streaming=true":    "991f52d5fc94437a",
	"common-cause/2oo3/dense/streaming=false":     "a34f81119c844c75",
	"common-cause/2oo3/dense/streaming=true":      "80def77cb86351a1",
	"common-cause/2oo3/sparse/streaming=false":    "a34f81119c844c75",
	"common-cause/2oo3/sparse/streaming=true":     "80def77cb86351a1",
	"common-cause/2oo3/batched/streaming=false":   "68cfc9d4d929660a",
	"common-cause/2oo3/batched/streaming=true":    "f3e14ac9236d22f9",
	"resource-shift/1oon/dense/streaming=false":   "3c39b35f0b0b66ff",
	"resource-shift/1oon/dense/streaming=true":    "1a132de59d4d77d1",
	"resource-shift/1oon/sparse/streaming=false":  "3c39b35f0b0b66ff",
	"resource-shift/1oon/sparse/streaming=true":   "1a132de59d4d77d1",
	"resource-shift/1oon/batched/streaming=false": "52a7f3a9ec5106ef",
	"resource-shift/1oon/batched/streaming=true":  "b8470e9a2fc25678",
	"resource-shift/2oo3/dense/streaming=false":   "3d39dee1f5299517",
	"resource-shift/2oo3/dense/streaming=true":    "c5db6985f498c329",
	"resource-shift/2oo3/sparse/streaming=false":  "3d39dee1f5299517",
	"resource-shift/2oo3/sparse/streaming=true":   "c5db6985f498c329",
	"resource-shift/2oo3/batched/streaming=false": "507af539a432b591",
	"resource-shift/2oo3/batched/streaming=true":  "54ba0601fcdb3d86",
	"tied/1oon/dense/streaming=false":             "15c2ada0cec3c1c6",
	"tied/1oon/dense/streaming=true":              "d57a61a15bb0f597",
	"tied/1oon/sparse/streaming=false":            "15c2ada0cec3c1c6",
	"tied/1oon/sparse/streaming=true":             "d57a61a15bb0f597",
	"tied/1oon/batched/streaming=false":           "2cead957bd3e1a23",
	"tied/1oon/batched/streaming=true":            "244eca16d8ae69b8",
	"tied/2oo3/dense/streaming=false":             "903c1a733dcb8593",
	"tied/2oo3/dense/streaming=true":              "99a8ac419c300107",
	"tied/2oo3/sparse/streaming=false":            "903c1a733dcb8593",
	"tied/2oo3/sparse/streaming=true":             "99a8ac419c300107",
	"tied/2oo3/batched/streaming=false":           "15c062c817d8944c",
	"tied/2oo3/batched/streaming=true":            "1fab2dbf6794eaf3",
}
