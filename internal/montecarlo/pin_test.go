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
// the four development processes × two voting rules × {dense, sparse} ×
// {buffered, streaming}, over a 150-fault universe whose tied
// pairs cross bitset words. Each key has one pin for every worker count:
// the run spans five blocks, so 2 and 3 workers claim them out of order
// and 8 workers leave some idle.
func TestRunBitPins(t *testing.T) {
	t.Parallel()

	procs := pinProcesses(t)
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
	}{
		{"dense", false},
		{"sparse", true},
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
							Sparse: mode.sparse,
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

// pinProcess is one development process of the pinned runs.
type pinProcess struct {
	name string
	proc devsim.Process
}

// pinProcesses returns the four development processes over the pins'
// 150-fault universe, whose tied pairs cross bitset words.
func pinProcesses(t *testing.T) []pinProcess {
	t.Helper()
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
	return []pinProcess{
		{"independent", devsim.NewIndependentProcess(fs)},
		{"common-cause", cc},
		{"resource-shift", rs},
		{"tied", tied},
	}
}

// TestBatchedBitPins pins the dense row kernel bit for bit beyond
// TestRunBitPins' 1oon and 2oo3 pools: an imperfect adjudication stage, a
// 1-version pool and a 3oo5 pool, in 64-lane tiles with a partial last
// tile in every block (the w64 keys), and in tiles of a single lane. A
// tile is only one lane wide when the run is one replication long, so
// each w1 pin digests 16 one-replication runs at seeds 1..16.
func TestBatchedBitPins(t *testing.T) {
	t.Parallel()

	pools := []struct {
		versions int
		adj      system.Adjudicator
	}{
		{3, system.ImperfectAdjudicator{Voter: system.KOutOfN{K: 2, N: 3}, StagePFD: 1e-4}},
		{1, system.OneOutOfN{}},
		{5, system.KOutOfN{K: 3, N: 5}},
		{2, system.OneOutOfN{}},
		{3, system.KOutOfN{K: 2, N: 3}},
	}
	for _, p := range pinProcesses(t) {
		for _, pool := range pools {
			prefix := fmt.Sprintf("%s/%s/v%d", p.name, pool.adj.Name(), pool.versions)
			for _, streaming := range []bool{false, true} {
				key := fmt.Sprintf("%s/w64/streaming=%v", prefix, streaming)
				for _, workers := range []int{1, 3} {
					res, err := Run(Config{
						Process: p.proc, Versions: pool.versions, Adjudicator: pool.adj,
						Reps: 4*blockSize + 300, Workers: workers, Seed: 8, Streaming: streaming,
					})
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					if got, want := runDigest(res), batchedPins[key]; got != want {
						t.Errorf("%q: %q, // pinned %q (workers %d)", key, got, want, workers)
					}
				}
			}
			key := prefix + "/w1"
			digests := ""
			for seed := uint64(1); seed <= 16; seed++ {
				res, err := Run(Config{
					Process: p.proc, Versions: pool.versions, Adjudicator: pool.adj,
					Reps: 1, Seed: seed,
				})
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				digests += runDigest(res)
			}
			sum := sha256.Sum256([]byte(digests))
			if got, want := fmt.Sprintf("%x", sum[:8]), batchedPins[key]; got != want {
				t.Errorf("%q: %q, // pinned %q", key, got, want)
			}
		}
	}
}

var batchedPins = map[string]string{
	"common-cause/1oon/v1/w1":                           "dd9b8b71704c2d2a",
	"common-cause/1oon/v1/w64/streaming=false":          "a01503ec7e5af7a5",
	"common-cause/1oon/v1/w64/streaming=true":           "95ee56d84996c6f5",
	"common-cause/1oon/v2/w1":                           "4406e857440ee793",
	"common-cause/1oon/v2/w64/streaming=false":          "672969bb3b84c06b",
	"common-cause/1oon/v2/w64/streaming=true":           "991f52d5fc94437a",
	"common-cause/2oo3/v3/w1":                           "4ceb12b854c24e4c",
	"common-cause/2oo3/v3/w64/streaming=false":          "68cfc9d4d929660a",
	"common-cause/2oo3/v3/w64/streaming=true":           "f3e14ac9236d22f9",
	"common-cause/2oo3@0.0001/v3/w1":                    "0893db9e9a360e88",
	"common-cause/2oo3@0.0001/v3/w64/streaming=false":   "91488d934186a8bb",
	"common-cause/2oo3@0.0001/v3/w64/streaming=true":    "91066ead368686cb",
	"common-cause/3oo5/v5/w1":                           "c7cc7525499662d3",
	"common-cause/3oo5/v5/w64/streaming=false":          "135cdc6fd86e0135",
	"common-cause/3oo5/v5/w64/streaming=true":           "1e5962148e5cf2b3",
	"independent/1oon/v1/w1":                            "21fc53c9a26f8c78",
	"independent/1oon/v1/w64/streaming=false":           "4145a60a23c72237",
	"independent/1oon/v1/w64/streaming=true":            "a000ef4c50ead0aa",
	"independent/1oon/v2/w1":                            "a0009bc16e3f9a11",
	"independent/1oon/v2/w64/streaming=false":           "fd625dc627fb6d75",
	"independent/1oon/v2/w64/streaming=true":            "b122c5683c376120",
	"independent/2oo3/v3/w1":                            "b64fd27cd2a1f6f6",
	"independent/2oo3/v3/w64/streaming=false":           "f4ff2cc63a5c7131",
	"independent/2oo3/v3/w64/streaming=true":            "3d5359e2d879fa6e",
	"independent/2oo3@0.0001/v3/w1":                     "64ffdafded0b7ba6",
	"independent/2oo3@0.0001/v3/w64/streaming=false":    "fc5c7282e6a34771",
	"independent/2oo3@0.0001/v3/w64/streaming=true":     "f76fb847265b747f",
	"independent/3oo5/v5/w1":                            "c2fac1198eb48d9b",
	"independent/3oo5/v5/w64/streaming=false":           "473937172f05beae",
	"independent/3oo5/v5/w64/streaming=true":            "69d08d6b3c90b8b1",
	"resource-shift/1oon/v1/w1":                         "5deb65726edbb81f",
	"resource-shift/1oon/v1/w64/streaming=false":        "8516ce8d64e5d828",
	"resource-shift/1oon/v1/w64/streaming=true":         "7fde8745f5ba6bfd",
	"resource-shift/1oon/v2/w1":                         "f21138eb2dc4a9f4",
	"resource-shift/1oon/v2/w64/streaming=false":        "52a7f3a9ec5106ef",
	"resource-shift/1oon/v2/w64/streaming=true":         "b8470e9a2fc25678",
	"resource-shift/2oo3/v3/w1":                         "c8fd4f1fa8846d4d",
	"resource-shift/2oo3/v3/w64/streaming=false":        "507af539a432b591",
	"resource-shift/2oo3/v3/w64/streaming=true":         "54ba0601fcdb3d86",
	"resource-shift/2oo3@0.0001/v3/w1":                  "d5e55758223568c2",
	"resource-shift/2oo3@0.0001/v3/w64/streaming=false": "ff4729fb47be4165",
	"resource-shift/2oo3@0.0001/v3/w64/streaming=true":  "9892e4ef511e2a0d",
	"resource-shift/3oo5/v5/w1":                         "f3039456b06e68e5",
	"resource-shift/3oo5/v5/w64/streaming=false":        "fb97ab634ed57149",
	"resource-shift/3oo5/v5/w64/streaming=true":         "765333d958a0c613",
	"tied/1oon/v1/w1":                                   "703772a495b8b34e",
	"tied/1oon/v1/w64/streaming=false":                  "aff3baf4089156d0",
	"tied/1oon/v1/w64/streaming=true":                   "573a62107a81a628",
	"tied/1oon/v2/w1":                                   "07dabcf846aa2bf9",
	"tied/1oon/v2/w64/streaming=false":                  "2cead957bd3e1a23",
	"tied/1oon/v2/w64/streaming=true":                   "244eca16d8ae69b8",
	"tied/2oo3/v3/w1":                                   "4ec35bd30f6718d4",
	"tied/2oo3/v3/w64/streaming=false":                  "15c062c817d8944c",
	"tied/2oo3/v3/w64/streaming=true":                   "1fab2dbf6794eaf3",
	"tied/2oo3@0.0001/v3/w1":                            "caba23b5b2aef329",
	"tied/2oo3@0.0001/v3/w64/streaming=false":           "3a4fc7b27a151e8c",
	"tied/2oo3@0.0001/v3/w64/streaming=true":            "51e2378589c3abb7",
	"tied/3oo5/v5/w1":                                   "fe7d5a1c5409f0d0",
	"tied/3oo5/v5/w64/streaming=false":                  "9df9504ecfdcae14",
	"tied/3oo5/v5/w64/streaming=true":                   "a53fe5d3e839be2e",
}

var runPins = map[string]string{
	"independent/1oon/dense/streaming=false":     "fd625dc627fb6d75",
	"independent/1oon/dense/streaming=true":      "b122c5683c376120",
	"independent/1oon/sparse/streaming=false":    "e59024f60aee6e6c",
	"independent/1oon/sparse/streaming=true":     "d6d8642ddaa0eae5",
	"independent/2oo3/dense/streaming=false":     "f4ff2cc63a5c7131",
	"independent/2oo3/dense/streaming=true":      "3d5359e2d879fa6e",
	"independent/2oo3/sparse/streaming=false":    "82ae5e420ecf1cb2",
	"independent/2oo3/sparse/streaming=true":     "55352048977f5409",
	"common-cause/1oon/dense/streaming=false":    "672969bb3b84c06b",
	"common-cause/1oon/dense/streaming=true":     "991f52d5fc94437a",
	"common-cause/1oon/sparse/streaming=false":   "e8ad255d31c2843b",
	"common-cause/1oon/sparse/streaming=true":    "c7560f50aa3c9fdc",
	"common-cause/2oo3/dense/streaming=false":    "68cfc9d4d929660a",
	"common-cause/2oo3/dense/streaming=true":     "f3e14ac9236d22f9",
	"common-cause/2oo3/sparse/streaming=false":   "a34f81119c844c75",
	"common-cause/2oo3/sparse/streaming=true":    "80def77cb86351a1",
	"resource-shift/1oon/dense/streaming=false":  "52a7f3a9ec5106ef",
	"resource-shift/1oon/dense/streaming=true":   "b8470e9a2fc25678",
	"resource-shift/1oon/sparse/streaming=false": "3c39b35f0b0b66ff",
	"resource-shift/1oon/sparse/streaming=true":  "1a132de59d4d77d1",
	"resource-shift/2oo3/dense/streaming=false":  "507af539a432b591",
	"resource-shift/2oo3/dense/streaming=true":   "54ba0601fcdb3d86",
	"resource-shift/2oo3/sparse/streaming=false": "3d39dee1f5299517",
	"resource-shift/2oo3/sparse/streaming=true":  "c5db6985f498c329",
	"tied/1oon/dense/streaming=false":            "2cead957bd3e1a23",
	"tied/1oon/dense/streaming=true":             "244eca16d8ae69b8",
	"tied/1oon/sparse/streaming=false":           "15c2ada0cec3c1c6",
	"tied/1oon/sparse/streaming=true":            "d57a61a15bb0f597",
	"tied/2oo3/dense/streaming=false":            "15c062c817d8944c",
	"tied/2oo3/dense/streaming=true":             "1fab2dbf6794eaf3",
	"tied/2oo3/sparse/streaming=false":           "903c1a733dcb8593",
	"tied/2oo3/sparse/streaming=true":            "99a8ac419c300107",
}
