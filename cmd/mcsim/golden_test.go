package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The golden files under testdata/ were captured at fixed seeds: the
// dense, streaming, sparse and rare-event files from the pair-shaped
// (pre-adjudicator) CLI, the correlated and 2oo3 files from the CLI
// before the replication loops were unified into one bitset pipeline.
// The Monte-Carlo files were re-captured once when replication blocks got
// their own streams, the rare-event file once when the rare-event
// estimators moved onto those blocks, and their first lines once when the
// report began to name every voting rule by its adjudicator name
// ("1oon"). Every file but the sparse one was re-captured once more when
// the 64-lane row kernel became the only dense kernel: each is what the
// CLI printed with -batch 64 before, minus the header's kernel suffix,
// and again when the dense kernel began deciding its Bernoulli lanes
// bit-serially. The sparse file alone was re-captured when sparse runs
// began to develop 64-lane tiles of sparse rows. The sparse rare-event
// file was captured when the rare-event estimators began to develop their
// tilted faults through the same sampler.
// These tests assert the refactors' core compatibility
// promise: every invocation renders byte-identical output — same variate
// sequence, same summation order, same report text — and, because each
// block's randomness is keyed by its index, at every worker count.
func TestGoldenLegacyOutputs(t *testing.T) {
	t.Parallel()

	model := filepath.Join("testdata", "golden_model.json")
	cases := []struct {
		name   string
		args   []string
		golden string
	}{
		{
			name:   "dense buffered",
			args:   []string{"-model", model, "-reps", "20000", "-seed", "3"},
			golden: "golden_dense.txt",
		},
		{
			// The default rule and its explicit spelling are one report.
			name:   "dense buffered 1oon",
			args:   []string{"-model", model, "-reps", "20000", "-seed", "3", "-adjudicator", "1oon"},
			golden: "golden_dense.txt",
		},
		{
			name:   "streaming",
			args:   []string{"-model", model, "-reps", "20000", "-seed", "3", "-stream"},
			golden: "golden_stream.txt",
		},
		{
			name:   "sparse",
			args:   []string{"-model", model, "-reps", "20000", "-seed", "3", "-sparse"},
			golden: "golden_sparse.txt",
		},
		{
			name:   "correlated",
			args:   []string{"-model", model, "-reps", "20000", "-seed", "3", "-correlation", "0.2"},
			golden: "golden_correlated.txt",
		},
		{
			// The common-cause process has no sparse sampler, so -sparse
			// leaves the run, and its header, on the row kernel.
			name:   "correlated sparse",
			args:   []string{"-model", model, "-reps", "20000", "-seed", "3", "-correlation", "0.2", "-sparse"},
			golden: "golden_correlated.txt",
		},
		{
			name:   "correlated streaming",
			args:   []string{"-model", model, "-reps", "20000", "-seed", "3", "-correlation", "0.2", "-stream"},
			golden: "golden_correlated_stream.txt",
		},
		{
			name:   "2oo3 pool",
			args:   []string{"-model", model, "-reps", "20000", "-seed", "3", "-versions", "3", "-adjudicator", "2oo3"},
			golden: "golden_2oo3.txt",
		},
		{
			name:   "rare-event",
			args:   []string{"-scenario", "safety-grade", "-seed", "2", "-reps", "10000", "-rare"},
			golden: "golden_rare.txt",
		},
		{
			name:   "rare-event sparse",
			args:   []string{"-scenario", "safety-grade", "-seed", "2", "-reps", "10000", "-rare", "-sparse"},
			golden: "golden_rare_sparse.txt",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatalf("ReadFile: %v", err)
			}
			for _, workers := range []string{"1", "4"} {
				args := append(tc.args[:len(tc.args):len(tc.args)], "-workers", workers)
				var out strings.Builder
				if err := run(context.Background(), args, &out); err != nil {
					t.Fatalf("run(%v): %v", args, err)
				}
				if out.String() != string(want) {
					t.Errorf("-workers %s: output diverged from golden %s:\n--- got ---\n%s\n--- want ---\n%s",
						workers, tc.golden, out.String(), want)
				}
			}
		})
	}
}
