package montecarlo

import (
	"testing"

	"diversity/internal/devsim"
	"diversity/internal/faultmodel"
	"diversity/internal/scenario"
)

// Ablation bench for the parallelisation design choice called out in
// DESIGN.md: Monte-Carlo sharding across split PRNG streams vs a single
// worker.

func benchProcess(b *testing.B) devsim.Process {
	b.Helper()
	faults := make([]faultmodel.Fault, 50)
	for i := range faults {
		faults[i] = faultmodel.Fault{P: 0.1, Q: 0.9 / 50}
	}
	fs, err := faultmodel.New(faults)
	if err != nil {
		b.Fatal(err)
	}
	return devsim.NewIndependentProcess(fs)
}

func benchRun(b *testing.B, workers int) {
	b.Helper()
	proc := benchProcess(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{
			Process:  proc,
			Versions: 2,
			Reps:     20000,
			Workers:  workers,
			Seed:     uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunSingleWorker(b *testing.B) { benchRun(b, 1) }

func BenchmarkRunAllCores(b *testing.B) { benchRun(b, 0) }

// BenchmarkDenseKernel times the dense row kernel: one streaming worker
// on the throughput-headline scenario. b.N counts replications directly.
func BenchmarkDenseKernel(b *testing.B) {
	sc, err := scenario.CommercialGrade(1)
	if err != nil {
		b.Fatal(err)
	}
	proc := devsim.NewIndependentProcess(sc.FaultSet)
	b.ResetTimer()
	if _, err := Run(Config{
		Process:   proc,
		Versions:  2,
		Reps:      b.N,
		Workers:   1,
		Seed:      1,
		Streaming: true,
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSparseKernel times sparse tiles: one streaming worker on the
// million-fault scenario, the sparse-kernel regime, with the lazily built
// fault groups excluded. b.N counts replications directly.
func BenchmarkSparseKernel(b *testing.B) {
	sc, err := scenario.ByName("million-faults", 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		Process: devsim.NewIndependentProcess(sc.FaultSet), Versions: 2,
		Reps: 1, Workers: 1, Seed: 1, Streaming: true, Sparse: true,
	}
	if _, err := Run(cfg); err != nil {
		b.Fatal(err)
	}
	cfg.Reps = b.N
	b.ResetTimer()
	if _, err := Run(cfg); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSummarized times the summary a serve node computes once per
// buffered job: a 20,000-replication safety-grade pair, where most
// version PFDs and nearly all system PFDs are exactly 0.
func BenchmarkSummarized(b *testing.B) {
	sc, err := scenario.SafetyGrade(1)
	if err != nil {
		b.Fatal(err)
	}
	res, err := Run(Config{Process: devsim.NewIndependentProcess(sc.FaultSet), Versions: 2, Reps: 20000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := res.Summarized(); err != nil {
			b.Fatal(err)
		}
	}
}
