package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"
)

func TestParseInts(t *testing.T) {
	t.Parallel()

	got, err := parseInts("1, 8,64", 1)
	if err != nil {
		t.Fatalf("parseInts: %v", err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 8 || got[2] != 64 {
		t.Errorf("parseInts = %v, want [1 8 64]", got)
	}
	for _, bad := range []string{"", "x", "0"} {
		if _, err := parseInts(bad, 1); err == nil {
			t.Errorf("parseInts(%q, 1) succeeded, want error", bad)
		}
	}
}

func TestBenchMatrix(t *testing.T) {
	// Not parallel: bytes/rep is read from process-wide MemStats, which
	// the other matrix tests' allocations would pollute.

	out := filepath.Join(t.TempDir(), "bench.json")
	var stdout strings.Builder
	err := run(context.Background(), []string{
		"-reps", "5000", "-workers", "1,0", "-sparse-n", "", "-pools", "",
		"-out", out, "-seed", "5",
	}, &stdout)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if rep.Bench != "montecarlo-kernel-matrix" || rep.GoVersion == "" {
		t.Errorf("metadata incomplete: %+v", rep)
	}
	if rep.SchemaVersion != schemaVersion {
		t.Errorf("schema version %d, want %d", rep.SchemaVersion, schemaVersion)
	}
	if rep.GOMAXPROCS < 1 {
		t.Errorf("gomaxprocs %d not recorded", rep.GOMAXPROCS)
	}
	if rep.GitCommit == "" {
		t.Error("git commit not recorded (repo checkouts should always resolve one)")
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("got %d rows, want 4 (workers 1, 0 × buffered, streaming)", len(rep.Rows))
	}
	buffered, streaming := rep.Rows[0], rep.Rows[1]
	if buffered.Streaming || !streaming.Streaming || rep.Rows[2].Workers != 0 {
		t.Fatalf("row order unexpected: %+v", rep.Rows)
	}
	// Results depend on the seed alone: cells that differ only in the
	// worker count report the same mean bit for bit.
	for i, row := range rep.Rows[:2] {
		if other := rep.Rows[i+2]; other.MeanSystemPFD != row.MeanSystemPFD {
			t.Errorf("streaming=%v: mean %v at workers 1, %v at workers 0", row.Streaming, row.MeanSystemPFD, other.MeanSystemPFD)
		}
	}
	for _, row := range rep.Rows {
		if row.Reps != 5000 || row.Scenario != "commercial-grade" || row.N != 40 {
			t.Errorf("row has wrong cell parameters: %+v", row)
		}
		if row.Sparse || row.SparseSkips != 0 {
			t.Errorf("aggregation-matrix row claims the sparse kernel: %+v", row)
		}
		if row.WallNS <= 0 || row.NSPerRep <= 0 || row.RepsPerSecond <= 0 {
			t.Errorf("row missing timing measurements: %+v", row)
		}
	}
	// The two modes sample the same population, so their means agree
	// exactly; neither allocates per replication, but buffered keeps two
	// float64 samples per replication and streaming keeps none.
	if buffered.MeanSystemPFD != streaming.MeanSystemPFD {
		t.Errorf("means diverged across modes: %v vs %v", buffered.MeanSystemPFD, streaming.MeanSystemPFD)
	}
	if streaming.BytesPerRep >= buffered.BytesPerRep {
		t.Errorf("streaming bytes/rep %v not below buffered %v", streaming.BytesPerRep, buffered.BytesPerRep)
	}
	for _, row := range rep.Rows {
		if row.AllocsPerRep > 1 {
			t.Errorf("streaming=%v allocs/rep = %v, want (amortised) below 1", row.Streaming, row.AllocsPerRep)
		}
	}
}

// TestBenchSparseMatrix pins the kernel matrix: a dense and a sparse cell
// per universe size, the sparse cells actually running the sparse kernel
// and beating the dense baseline on a large universe.
func TestBenchSparseMatrix(t *testing.T) {
	t.Parallel()

	var stdout strings.Builder
	err := run(context.Background(), []string{"-quick", "-out", "-", "-seed", "5"}, &stdout)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var rep Report
	if err := json.Unmarshal([]byte(stdout.String()), &rep); err != nil {
		t.Fatalf("stdout is not the JSON report: %v", err)
	}
	var kernel []Row
	for _, row := range rep.Rows {
		if row.Scenario == "large-universe" {
			kernel = append(kernel, row)
		}
	}
	if len(kernel) != 4 {
		t.Fatalf("got %d kernel-matrix rows, want 4 (2 sizes × dense/sparse): %+v", len(kernel), rep.Rows)
	}
	for i := 0; i < len(kernel); i += 2 {
		dense, sparse := kernel[i], kernel[i+1]
		if dense.Sparse || !sparse.Sparse {
			t.Fatalf("kernel row order unexpected: %+v", kernel)
		}
		if dense.N != sparse.N || dense.Reps != sparse.Reps {
			t.Errorf("kernel cell pair mismatched: %+v vs %+v", dense, sparse)
		}
		if !dense.Streaming || !sparse.Streaming {
			t.Errorf("kernel matrix must run streaming: %+v", kernel[i])
		}
		if sparse.SparseSkips == 0 {
			t.Errorf("sparse cell recorded no skip draws: %+v", sparse)
		}
		// Even in quick mode the sparse kernel wins clearly at n = 10^5.
		if sparse.N >= 100000 && sparse.NSPerRep*5 > dense.NSPerRep {
			t.Errorf("n=%d: sparse %v ns/rep not well below dense %v ns/rep",
				sparse.N, sparse.NSPerRep, dense.NSPerRep)
		}
	}
}

// TestBenchPoolMatrix pins the N-version matrix: one row per requested
// versions:adjudicator cell, streaming on all cores, with the voting rule
// recorded in the row. 3:majority and 3:2oo3 share the defeat threshold
// (a fault must be present in ≥2 of 3 versions), so their simulated means
// must agree exactly — the matrix doubles as an adjudicator consistency
// check.
func TestBenchPoolMatrix(t *testing.T) {
	t.Parallel()

	var stdout strings.Builder
	err := run(context.Background(), []string{
		"-reps", "2000", "-workers", "1", "-sparse-n", "",
		"-pools", "3:majority,3:2oo3", "-out", "-", "-seed", "5",
	}, &stdout)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var rep Report
	if err := json.Unmarshal([]byte(stdout.String()), &rep); err != nil {
		t.Fatalf("stdout is not the JSON report: %v", err)
	}
	var pool []Row
	for _, row := range rep.Rows {
		if row.Versions != 0 {
			pool = append(pool, row)
		}
	}
	if len(pool) != 2 {
		t.Fatalf("got %d pool rows, want 2: %+v", len(pool), rep.Rows)
	}
	majority, kOutOfN := pool[0], pool[1]
	if majority.Adjudicator != "majority" || kOutOfN.Adjudicator != "2oo3" {
		t.Fatalf("pool row order unexpected: %+v", pool)
	}
	for _, row := range pool {
		if row.Versions != 3 || !row.Streaming || row.Sparse {
			t.Errorf("pool row has wrong cell parameters: %+v", row)
		}
		if row.WallNS <= 0 || row.NSPerRep <= 0 {
			t.Errorf("pool row missing timing measurements: %+v", row)
		}
	}
	if majority.MeanSystemPFD != kOutOfN.MeanSystemPFD {
		t.Errorf("majority-of-3 mean %v != 2oo3 mean %v (same defeat threshold)",
			majority.MeanSystemPFD, kOutOfN.MeanSystemPFD)
	}
}

func TestBenchStdout(t *testing.T) {
	t.Parallel()

	var stdout strings.Builder
	if err := run(context.Background(), []string{
		"-reps", "1000", "-workers", "1", "-sparse-n", "", "-pools", "",
		"-out", "-",
	}, &stdout); err != nil {
		t.Fatalf("run: %v", err)
	}
	var rep Report
	if err := json.Unmarshal([]byte(stdout.String()), &rep); err != nil {
		t.Fatalf("stdout is not the JSON report: %v", err)
	}
	if len(rep.Rows) != 2 {
		t.Errorf("got %d rows, want 2", len(rep.Rows))
	}
}

func TestResolveCommit(t *testing.T) {
	t.Parallel()

	const rev = "0123456789abcdef0123456789abcdef01234567"
	fail := errors.New("not a git checkout")
	git := func(head, status string, headErr, statusErr error) func(args ...string) (string, error) {
		return func(args ...string) (string, error) {
			if args[0] == "rev-parse" {
				return head, headErr
			}
			return status, statusErr
		}
	}
	stamped := func(modified string) []debug.BuildSetting {
		return []debug.BuildSetting{{Key: "vcs.revision", Value: rev}, {Key: "vcs.modified", Value: modified}}
	}
	for _, tc := range []struct {
		name     string
		settings []debug.BuildSetting
		git      func(args ...string) (string, error)
		want     string
	}{
		{"stamped clean", stamped("false"), git("", "", fail, fail), rev},
		{"stamped modified", stamped("true"), git("", "", fail, fail), rev + "-dirty"},
		{"git clean", nil, git(rev+"\n", "", nil, nil), rev},
		{"git dirty", nil, git(rev+"\n", " M cmd/bench/main.go\n", nil, nil), rev + "-dirty"},
		{"git status fails", nil, git(rev+"\n", "", nil, fail), rev},
		{"no source", nil, git("", "", fail, fail), ""},
	} {
		if got := resolveCommit(tc.settings, tc.git); got != tc.want {
			t.Errorf("%s: resolveCommit = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestBenchBadFlags(t *testing.T) {
	t.Parallel()

	var stdout strings.Builder
	for _, args := range [][]string{
		{"-reps", "0"},
		{"-workers", "-2"},
		{"-reps", "abc"},
		{"-sparse-n", "2"},
		{"-batch-widths", "64"},
	} {
		if err := run(context.Background(), args, &stdout); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
