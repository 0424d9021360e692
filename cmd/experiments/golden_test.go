package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenE19 asserts the refactor's compatibility promise for the
// experiment driver: E19 at the capture seed renders byte-identical
// output to the golden, which was re-captured once when Monte-Carlo
// replication blocks got their own streams, once when the 64-lane row
// kernel became the only dense kernel and once when that kernel began
// deciding its Bernoulli lanes bit-serially. E19's Monte-Carlo runs use
// all cores, and the output must not depend on how many there are.
func TestGoldenE19(t *testing.T) {
	t.Parallel()

	want, err := os.ReadFile(filepath.Join("testdata", "golden_e19.txt"))
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	var out strings.Builder
	code, err := run(context.Background(), []string{"-id", "E19", "-quick", "-seed", "1"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 0 {
		t.Fatalf("run exit code = %d, want 0 (failed checks)", code)
	}
	if out.String() != string(want) {
		t.Errorf("output diverged from pre-refactor golden:\n--- got ---\n%s\n--- want ---\n%s", out.String(), want)
	}
}
