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
// and 8 workers leave some idle. A process without a sparse sampler
// develops rows under Sparse, so its sparse run must also equal its
// dense twin at the same seed and workers, with no skip draws.
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
	denseDigests := map[string]string{}
	for _, p := range procs {
		_, hasSparse := p.proc.(devsim.SparseDeveloper)
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
						got := runDigest(res)
						if want := runPins[key]; got != want {
							t.Errorf("%q: %q, // pinned %q (workers %d)", key, got, want, workers)
						}
						twin := fmt.Sprintf("%s/%s/dense/streaming=%v workers=%d", p.name, pool.adj.Name(), streaming, workers)
						switch {
						case !mode.sparse:
							denseDigests[twin] = got
						case !hasSparse && (got != denseDigests[twin] || res.SparseSkips != 0):
							t.Errorf("%q workers %d: %q with %d skips, want the rows of %q (%q) with none",
								key, workers, got, res.SparseSkips, twin, denseDigests[twin])
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
	return processesOver(t, fs, [][2]int{{0, 100}, {5, 70}, {64, 127}})
}

// processesOver returns the four development processes over fs, the
// tied one tying pairs.
func processesOver(t *testing.T, fs *faultmodel.FaultSet, pairs [][2]int) []pinProcess {
	t.Helper()
	cc, err := devsim.NewCommonCauseProcess(fs, 0.2, 2)
	if err != nil {
		t.Fatalf("NewCommonCauseProcess: %v", err)
	}
	rs, err := devsim.NewResourceShiftProcess(fs, 0.5)
	if err != nil {
		t.Fatalf("NewResourceShiftProcess: %v", err)
	}
	tied, err := devsim.NewTiedPairsProcess(fs, pairs)
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
	"common-cause/1oon/v1/w1":                           "753e623b88141b92",
	"common-cause/1oon/v1/w64/streaming=false":          "2e64e67362741de0",
	"common-cause/1oon/v1/w64/streaming=true":           "65ea8fb92c39401a",
	"common-cause/1oon/v2/w1":                           "77c25306dc4bf5c5",
	"common-cause/1oon/v2/w64/streaming=false":          "370bd6c9ac7b83eb",
	"common-cause/1oon/v2/w64/streaming=true":           "92812a2ed794f46e",
	"common-cause/2oo3/v3/w1":                           "eec32a8ff66572b1",
	"common-cause/2oo3/v3/w64/streaming=false":          "5189a5fd1863c98f",
	"common-cause/2oo3/v3/w64/streaming=true":           "c6e5a4794132d401",
	"common-cause/2oo3@0.0001/v3/w1":                    "31a9a54346312f60",
	"common-cause/2oo3@0.0001/v3/w64/streaming=false":   "64f08c9090126e9d",
	"common-cause/2oo3@0.0001/v3/w64/streaming=true":    "383f24a28c2ccfa9",
	"common-cause/3oo5/v5/w1":                           "115ae3dcd7fc0b3d",
	"common-cause/3oo5/v5/w64/streaming=false":          "2b5623274c55280e",
	"common-cause/3oo5/v5/w64/streaming=true":           "d27c5bebe81bd2cf",
	"independent/1oon/v1/w1":                            "5de3673696ef4005",
	"independent/1oon/v1/w64/streaming=false":           "b2c49c7d5d34fe22",
	"independent/1oon/v1/w64/streaming=true":            "b66c72f17ec4986f",
	"independent/1oon/v2/w1":                            "23042a53db996450",
	"independent/1oon/v2/w64/streaming=false":           "efb84705c1a84b1f",
	"independent/1oon/v2/w64/streaming=true":            "f5cd807760084dd6",
	"independent/2oo3/v3/w1":                            "5277758f8b990ca3",
	"independent/2oo3/v3/w64/streaming=false":           "62952af09a7a7359",
	"independent/2oo3/v3/w64/streaming=true":            "d229e15086b754dd",
	"independent/2oo3@0.0001/v3/w1":                     "379631b2d1886507",
	"independent/2oo3@0.0001/v3/w64/streaming=false":    "b0297991eee2b9cb",
	"independent/2oo3@0.0001/v3/w64/streaming=true":     "89dd6fbd99f855f1",
	"independent/3oo5/v5/w1":                            "c068f58994358ef1",
	"independent/3oo5/v5/w64/streaming=false":           "a8434c72b449e82a",
	"independent/3oo5/v5/w64/streaming=true":            "62a41133502e5cd2",
	"resource-shift/1oon/v1/w1":                         "21731a8e8d4a02c9",
	"resource-shift/1oon/v1/w64/streaming=false":        "f50758c4ff76bf5f",
	"resource-shift/1oon/v1/w64/streaming=true":         "839963d505b03245",
	"resource-shift/1oon/v2/w1":                         "88941e1f203b98e3",
	"resource-shift/1oon/v2/w64/streaming=false":        "91ba1fa1a6f53a15",
	"resource-shift/1oon/v2/w64/streaming=true":         "fdaba4b0263bc7bf",
	"resource-shift/2oo3/v3/w1":                         "be90d77e803997a2",
	"resource-shift/2oo3/v3/w64/streaming=false":        "6a041eda0402ba3e",
	"resource-shift/2oo3/v3/w64/streaming=true":         "323f2fe6b7266a71",
	"resource-shift/2oo3@0.0001/v3/w1":                  "ead3ea8da7c0ef16",
	"resource-shift/2oo3@0.0001/v3/w64/streaming=false": "e0efc34e06afb22a",
	"resource-shift/2oo3@0.0001/v3/w64/streaming=true":  "e8c8de031b8a9cf8",
	"resource-shift/3oo5/v5/w1":                         "f5ee0870207e53c9",
	"resource-shift/3oo5/v5/w64/streaming=false":        "7213a8f515b7e0aa",
	"resource-shift/3oo5/v5/w64/streaming=true":         "872cec18720bc789",
	"tied/1oon/v1/w1":                                   "a2ec2cd96a5df553",
	"tied/1oon/v1/w64/streaming=false":                  "8bae93ceda57f9ad",
	"tied/1oon/v1/w64/streaming=true":                   "7614c6d6faf443c0",
	"tied/1oon/v2/w1":                                   "00fc4bee279fe907",
	"tied/1oon/v2/w64/streaming=false":                  "8f16a959e314fc98",
	"tied/1oon/v2/w64/streaming=true":                   "65ffc0ca4d6df732",
	"tied/2oo3/v3/w1":                                   "433eccee6fb787bc",
	"tied/2oo3/v3/w64/streaming=false":                  "40ffd564e8008aea",
	"tied/2oo3/v3/w64/streaming=true":                   "3e292db1459db013",
	"tied/2oo3@0.0001/v3/w1":                            "824a809e6115c75d",
	"tied/2oo3@0.0001/v3/w64/streaming=false":           "91f620f7d606bfa9",
	"tied/2oo3@0.0001/v3/w64/streaming=true":            "1cc3e0561aafc001",
	"tied/3oo5/v5/w1":                                   "87361d06cb0d5d36",
	"tied/3oo5/v5/w64/streaming=false":                  "fdbf82d73a576fdf",
	"tied/3oo5/v5/w64/streaming=true":                   "991a3d72212299d9",
}

var runPins = map[string]string{
	"independent/1oon/dense/streaming=false":     "efb84705c1a84b1f",
	"independent/1oon/dense/streaming=true":      "f5cd807760084dd6",
	"independent/1oon/sparse/streaming=false":    "e59024f60aee6e6c",
	"independent/1oon/sparse/streaming=true":     "d6d8642ddaa0eae5",
	"independent/2oo3/dense/streaming=false":     "62952af09a7a7359",
	"independent/2oo3/dense/streaming=true":      "d229e15086b754dd",
	"independent/2oo3/sparse/streaming=false":    "82ae5e420ecf1cb2",
	"independent/2oo3/sparse/streaming=true":     "55352048977f5409",
	"common-cause/1oon/dense/streaming=false":    "370bd6c9ac7b83eb",
	"common-cause/1oon/dense/streaming=true":     "92812a2ed794f46e",
	"common-cause/1oon/sparse/streaming=false":   "370bd6c9ac7b83eb",
	"common-cause/1oon/sparse/streaming=true":    "92812a2ed794f46e",
	"common-cause/2oo3/dense/streaming=false":    "5189a5fd1863c98f",
	"common-cause/2oo3/dense/streaming=true":     "c6e5a4794132d401",
	"common-cause/2oo3/sparse/streaming=false":   "5189a5fd1863c98f",
	"common-cause/2oo3/sparse/streaming=true":    "c6e5a4794132d401",
	"resource-shift/1oon/dense/streaming=false":  "91ba1fa1a6f53a15",
	"resource-shift/1oon/dense/streaming=true":   "fdaba4b0263bc7bf",
	"resource-shift/1oon/sparse/streaming=false": "91ba1fa1a6f53a15",
	"resource-shift/1oon/sparse/streaming=true":  "fdaba4b0263bc7bf",
	"resource-shift/2oo3/dense/streaming=false":  "6a041eda0402ba3e",
	"resource-shift/2oo3/dense/streaming=true":   "323f2fe6b7266a71",
	"resource-shift/2oo3/sparse/streaming=false": "6a041eda0402ba3e",
	"resource-shift/2oo3/sparse/streaming=true":  "323f2fe6b7266a71",
	"tied/1oon/dense/streaming=false":            "8f16a959e314fc98",
	"tied/1oon/dense/streaming=true":             "65ffc0ca4d6df732",
	"tied/1oon/sparse/streaming=false":           "8f16a959e314fc98",
	"tied/1oon/sparse/streaming=true":            "65ffc0ca4d6df732",
	"tied/2oo3/dense/streaming=false":            "40ffd564e8008aea",
	"tied/2oo3/dense/streaming=true":             "3e292db1459db013",
	"tied/2oo3/sparse/streaming=false":           "40ffd564e8008aea",
	"tied/2oo3/sparse/streaming=true":            "3e292db1459db013",
}
