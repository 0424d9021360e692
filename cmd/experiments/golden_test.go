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
	assertGolden(t, "golden_e19.txt", "-id", "E19", "-quick", "-seed", "1")
}

// TestGoldenDevelop pins the experiments that develop versions one at a
// time with devsim's Develop rather than through a Monte-Carlo run: E12
// (the protection system pairs), E15 (the Knight–Leveson replica) and
// E22 (the calibration projects). The golden was captured when Develop
// became a one-lane development of the row kernel.
func TestGoldenDevelop(t *testing.T) {
	t.Parallel()
	assertGolden(t, "golden_develop.txt", "-id", "E12,E15,E22", "-quick", "-seed", "1")
}

// assertGolden runs the driver with args and requires a zero exit code
// and output byte-identical to testdata/golden.
func assertGolden(t *testing.T, golden string, args ...string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	var out strings.Builder
	code, err := run(context.Background(), args, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 0 {
		t.Fatalf("run exit code = %d, want 0 (failed checks)", code)
	}
	if out.String() != string(want) {
		t.Errorf("output diverged from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, out.String(), want)
	}
}
