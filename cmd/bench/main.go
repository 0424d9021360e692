// Command bench runs the pinned Monte-Carlo benchmark matrices and writes
// the measurements as JSON (see docs/PERFORMANCE.md for methodology and
// for how the checked-in report in the repository root is regenerated).
//
// The report covers these matrices:
//
//   - the aggregation matrix — replication counts × worker counts ×
//     buffered/streaming aggregation over the commercial-grade scenario —
//     which tracks the streaming harness;
//   - the N-version matrix — pool size × voting rule (configurable with
//     -pools) over the commercial-grade scenario — which tracks the
//     adjudicated row scoring against the 1oo2 baseline;
//   - the kernel matrix — dense vs sparse development over large-universe
//     fault sets of n ∈ {10^3, 10^5, 10^6} (configurable with -sparse-n),
//     streaming aggregation, all cores — which tracks the geometric
//     skip-sampling kernel's O(k)-per-replication claim.
//
// Each cell runs in-process with a fresh telemetry registry. Throughput
// is read back from that registry (the same montecarlo.replications_*
// series the production CLIs export), allocation figures come from
// runtime.MemStats deltas around the run, and peak RSS from the kernel's
// VmHWM accounting, reset per cell where the platform allows it
// (/proc/self/clear_refs); on platforms without it the column is 0.
//
// Usage:
//
//	bench [-out bench.json] [-reps 250000,1000000] [-workers 1,0] [-sparse-n 1000,100000,1000000] [-pools 2:1oon,3:2oo3]
//	bench -quick -out -        # small matrix, JSON to stdout (CI smoke)
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"diversity/internal/devsim"
	"diversity/internal/montecarlo"
	"diversity/internal/scenario"
	"diversity/internal/system"
	"diversity/internal/telemetry"
)

// schemaVersion identifies the report layout; bump it when fields change
// meaning so downstream tooling can dispatch on the document shape.
// Version 3 added the N-version adjudication matrix and the per-row
// versions/adjudicator columns. Version 4 added the batch matrix and the
// per-row batch_width column; version 5 removed both, since every dense
// cell runs the one 64-lane row kernel.
const schemaVersion = 5

// Row is one benchmark cell: a (scenario, n, reps, workers, streaming,
// sparse) combination and its measurements.
type Row struct {
	// Scenario names the fault-set regime; N is its fault-universe size.
	Scenario string `json:"scenario"`
	N        int    `json:"n"`

	Reps      int  `json:"reps"`
	Workers   int  `json:"workers"`
	Streaming bool `json:"streaming"`
	// Sparse marks cells run with the geometric skip-sampling development
	// kernel (montecarlo Config.Sparse).
	Sparse bool `json:"sparse"`
	// Versions and Adjudicator identify N-version matrix cells: the pool
	// size and voting rule the cell adjudicated with. Zero/empty on the
	// aggregation and kernel matrices, which run the default 1oo2 pair.
	Versions    int    `json:"versions,omitempty"`
	Adjudicator string `json:"adjudicator,omitempty"`

	// WallNS is the wall-clock duration of the run in nanoseconds;
	// NSPerRep is WallNS / Reps.
	WallNS   int64   `json:"wall_ns"`
	NSPerRep float64 `json:"ns_per_rep"`
	// RepsPerSecond is read from the telemetry registry's
	// montecarlo.replications_per_second gauge after the run.
	RepsPerSecond float64 `json:"reps_per_second"`
	// AllocsPerRep and BytesPerRep are runtime.MemStats deltas (heap
	// object count and bytes allocated) divided by Reps. They cover the
	// whole run including fixed setup, so per-rep figures for streaming
	// runs shrink toward zero as Reps grows.
	AllocsPerRep float64 `json:"allocs_per_rep"`
	BytesPerRep  float64 `json:"bytes_per_rep"`
	// PeakRSSBytes is the kernel's peak resident set size for the cell
	// (VmHWM, reset per cell); 0 when the platform cannot report it.
	PeakRSSBytes int64 `json:"peak_rss_bytes"`
	// MeanSystemPFD anchors the cell to the simulated estimate so that
	// benchmark runs double as a cross-mode consistency check.
	MeanSystemPFD float64 `json:"mean_system_pfd"`
	// SparseSkips counts geometric skip draws (0 for dense cells).
	SparseSkips int64 `json:"sparse_skips,omitempty"`
}

// Report is the top-level JSON document.
type Report struct {
	Bench         string `json:"bench"`
	SchemaVersion int    `json:"schema_version"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	CPUs          int    `json:"cpus"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	// GitCommit is the revision the binary was built from (build info when
	// stamped, otherwise git rev-parse); empty when neither is available.
	GitCommit string `json:"git_commit,omitempty"`
	Versions  int    `json:"versions"`
	Seed      uint64 `json:"seed"`
	Rows      []Row  `json:"rows"`
}

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	flags := flag.NewFlagSet("bench", flag.ContinueOnError)
	out := flags.String("out", "bench.json", "output path (\"-\" for stdout)")
	repsList := flags.String("reps", "250000,1000000", "comma-separated replication counts for the aggregation matrix")
	workersList := flags.String("workers", "1,0", "comma-separated worker counts (0 = all cores)")
	sparseNList := flags.String("sparse-n", "1000,100000,1000000", "comma-separated fault-universe sizes for the dense-vs-sparse kernel matrix (empty = skip)")
	poolList := flags.String("pools", "2:1oon,3:1oon,3:majority,3:2oo3,5:majority", "comma-separated versions:adjudicator cells for the N-version matrix (empty = skip)")
	seed := flags.Uint64("seed", 1, "random seed (same for every cell)")
	quick := flags.Bool("quick", false, "small matrix for smoke testing (overrides -reps and -sparse-n)")
	if err := flags.Parse(args); err != nil {
		return err
	}
	if *quick {
		*repsList = "20000"
		*sparseNList = "1000,100000"
		*poolList = "3:majority,3:2oo3"
	}
	repCounts, err := parseInts(*repsList, 1)
	if err != nil {
		return fmt.Errorf("-reps: %w", err)
	}
	workerCounts, err := parseInts(*workersList, 0)
	if err != nil {
		return fmt.Errorf("-workers: %w", err)
	}
	var sparseNs []int
	if strings.TrimSpace(*sparseNList) != "" {
		sparseNs, err = parseInts(*sparseNList, 4)
		if err != nil {
			return fmt.Errorf("-sparse-n: %w", err)
		}
	}
	pools, err := parsePools(*poolList)
	if err != nil {
		return fmt.Errorf("-pools: %w", err)
	}

	sc, err := scenario.CommercialGrade(*seed)
	if err != nil {
		return err
	}
	proc := devsim.NewIndependentProcess(sc.FaultSet)

	rep := Report{
		Bench:         "montecarlo-kernel-matrix",
		SchemaVersion: schemaVersion,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		CPUs:          runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GitCommit:     gitCommit(),
		Versions:      2,
		Seed:          *seed,
	}
	for _, reps := range repCounts {
		for _, workers := range workerCounts {
			for _, streaming := range []bool{false, true} {
				cell := cellConfig{
					scenario: sc.Name, n: sc.FaultSet.N(), proc: proc,
					reps: reps, workers: workers, streaming: streaming,
				}
				if err := appendCell(ctx, &rep, cell, *seed); err != nil {
					return err
				}
			}
		}
	}
	// The N-version matrix sweeps pool size × voting rule over the
	// commercial-grade scenario (streaming, all cores, the smallest
	// requested replication count): it tracks the cost of the generalised
	// popcount adjudication kernel against the 1oo2 baseline row.
	for _, pool := range pools {
		cell := cellConfig{
			scenario: sc.Name, n: sc.FaultSet.N(), proc: proc,
			reps: repCounts[0], workers: 0, streaming: true,
			versions: pool.versions, adj: pool.adj,
		}
		if err := appendCell(ctx, &rep, cell, *seed); err != nil {
			return err
		}
	}
	for _, n := range sparseNs {
		lu, err := scenario.LargeUniverse(n)
		if err != nil {
			return err
		}
		luProc := devsim.NewIndependentProcess(lu.FaultSet)
		for _, sparse := range []bool{false, true} {
			cell := cellConfig{
				scenario: lu.Name, n: n, proc: luProc,
				reps: kernelReps(n, sparse, *quick), workers: 0, streaming: true, sparse: sparse,
			}
			if err := appendCell(ctx, &rep, cell, *seed); err != nil {
				return err
			}
		}
	}
	doc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	doc = append(doc, '\n')
	if *out == "-" {
		_, err = stdout.Write(doc)
		return err
	}
	return os.WriteFile(*out, doc, 0o644)
}

// kernelReps is a kernel-matrix cell's replication count. A dense
// replication is O(n), so the dense budget shrinks as n grows to keep the
// baseline feasible. A sparse replication costs about the same at every n
// (it is O(faults present)), so every sparse cell runs
// sparseKernelReps — at least ~0.1 s of work on two cores, long enough
// that one scheduling hiccup does not move the cell. -quick runs both
// forms at one small budget.
func kernelReps(n int, sparse, quick bool) int {
	switch {
	case quick && n <= 1000:
		return 2000
	case quick:
		return 500
	case sparse:
		return sparseKernelReps
	case n <= 1000:
		return 100000
	case n <= 100000:
		return 20000
	default:
		return 5000
	}
}

// sparseKernelReps is the full matrix's sparse replication count: about
// 0.14–0.26 s at the 0.28–0.52 µs/rep the sparse cells have read on a
// shared 2-vCPU host.
const sparseKernelReps = 500000

// cellConfig is one matrix cell's parameters. A zero versions runs the
// default 1oo2 pair; a non-nil adj selects the voting rule.
type cellConfig struct {
	scenario  string
	n         int
	proc      devsim.Process
	reps      int
	workers   int
	streaming bool
	sparse    bool
	versions  int
	adj       system.Adjudicator
}

// poolSpec is one N-version matrix cell: pool size and voting rule.
type poolSpec struct {
	versions int
	adj      system.Adjudicator
}

// parsePools parses a "versions:adjudicator" list like
// "3:majority,3:2oo3"; an empty list skips the matrix.
func parsePools(s string) ([]poolSpec, error) {
	var out []poolSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		versionsText, adjText, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("bad pool %q: want versions:adjudicator", part)
		}
		versions, err := strconv.Atoi(versionsText)
		if err != nil {
			return nil, fmt.Errorf("bad pool size in %q: %w", part, err)
		}
		adj, err := system.ParseAdjudicator(adjText)
		if err != nil {
			return nil, fmt.Errorf("bad pool %q: %w", part, err)
		}
		if err := adj.Validate(versions); err != nil {
			return nil, err
		}
		out = append(out, poolSpec{versions: versions, adj: adj})
	}
	return out, nil
}

// appendCell measures one cell and appends its row, logging progress to
// stderr.
func appendCell(ctx context.Context, rep *Report, cell cellConfig, seed uint64) error {
	row, err := runCell(ctx, cell, seed)
	if err != nil {
		return fmt.Errorf("cell scenario=%s n=%d reps=%d workers=%d streaming=%v sparse=%v: %w",
			cell.scenario, cell.n, cell.reps, cell.workers, cell.streaming, cell.sparse, err)
	}
	rep.Rows = append(rep.Rows, row)
	pool := ""
	if cell.adj != nil {
		pool = fmt.Sprintf(" pool=%d:%s", cell.versions, adjName(cell.adj))
	}
	fmt.Fprintf(os.Stderr, "bench: %-14s n=%-8d reps=%-7d workers=%d streaming=%-5v sparse=%-5v%s %10.0f ns/rep %10.4f allocs/rep\n",
		cell.scenario, cell.n, cell.reps, cell.workers, cell.streaming, cell.sparse, pool, row.NSPerRep, row.AllocsPerRep)
	return nil
}

// adjName renders a cell's voting rule ("" for the default pair).
func adjName(adj system.Adjudicator) string {
	if adj == nil {
		return ""
	}
	return adj.Name()
}

// warmupReps bounds the short untimed run before each measured cell.
const warmupReps = 200

// runCell measures one matrix cell. A short untimed warmup run first
// primes lazy per-process state — notably the sparse kernel's equal-p
// group index, built on first use — so the timed window measures
// steady-state replication cost, not one-time setup. The preceding GC
// settles the heap so the MemStats delta belongs to this run, and
// resetPeakRSS scopes the VmHWM reading to the cell.
func runCell(ctx context.Context, cell cellConfig, seed uint64) (Row, error) {
	reg := telemetry.NewRegistry()
	versions := cell.versions
	if versions == 0 {
		versions = 2
	}
	cfg := montecarlo.Config{
		Process:     cell.proc,
		Versions:    versions,
		Reps:        cell.reps,
		Workers:     cell.workers,
		Seed:        seed,
		Streaming:   cell.streaming,
		Sparse:      cell.sparse,
		Adjudicator: cell.adj,
		Metrics:     reg,
	}

	warmup := cfg
	warmup.Reps = min(cell.reps, warmupReps)
	warmup.Metrics = nil
	warmup.Progress = nil
	if _, err := montecarlo.RunContext(ctx, warmup); err != nil {
		return Row{}, fmt.Errorf("warmup: %w", err)
	}

	runtime.GC()
	resetPeakRSS()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := montecarlo.RunContext(ctx, cfg)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return Row{}, err
	}

	ssum, err := res.SystemSummary()
	if err != nil {
		return Row{}, err
	}
	snap := reg.Snapshot()
	row := Row{
		Scenario:      cell.scenario,
		N:             cell.n,
		Reps:          cell.reps,
		Workers:       cell.workers,
		Streaming:     cell.streaming,
		Sparse:        cell.sparse,
		Versions:      cell.versions,
		Adjudicator:   adjName(cell.adj),
		WallNS:        wall.Nanoseconds(),
		NSPerRep:      float64(wall.Nanoseconds()) / float64(cell.reps),
		RepsPerSecond: snap.Gauges["montecarlo.replications_per_second"],
		AllocsPerRep:  float64(after.Mallocs-before.Mallocs) / float64(cell.reps),
		BytesPerRep:   float64(after.TotalAlloc-before.TotalAlloc) / float64(cell.reps),
		PeakRSSBytes:  peakRSS(),
		MeanSystemPFD: ssum.Mean,
		SparseSkips:   res.SparseSkips,
	}
	if got := snap.Counters["montecarlo.replications_total"]; got != int64(cell.reps) {
		return Row{}, fmt.Errorf("telemetry reported %d replications, want %d", got, cell.reps)
	}
	if cell.sparse && !res.Sparse {
		return Row{}, fmt.Errorf("sparse cell fell back to the dense kernel")
	}
	return row, nil
}

// gitCommit resolves the benchmarked revision: the VCS stamp from build
// info when present (go build of a committed tree), otherwise git itself
// (go run / go test builds are not stamped). A tree with uncommitted
// changes gets a "-dirty" suffix, so a report never passes off local
// edits as the named commit. Best-effort — an empty string means neither
// source was available.
func gitCommit() string {
	var settings []debug.BuildSetting
	if info, ok := debug.ReadBuildInfo(); ok {
		settings = info.Settings
	}
	return resolveCommit(settings, func(args ...string) (string, error) {
		out, err := exec.Command("git", args...).Output()
		return string(out), err
	})
}

// resolveCommit is gitCommit over injected build settings and a git
// runner: vcs.revision and vcs.modified when stamped, else
// git rev-parse HEAD and a non-empty git status --porcelain.
func resolveCommit(settings []debug.BuildSetting, git func(args ...string) (string, error)) string {
	rev, modified := "", false
	for _, s := range settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value == "true"
		}
	}
	if rev == "" {
		out, err := git("rev-parse", "HEAD")
		if err != nil {
			return ""
		}
		rev = strings.TrimSpace(out)
		status, err := git("status", "--porcelain")
		modified = err == nil && strings.TrimSpace(status) != ""
	}
	if modified {
		rev += "-dirty"
	}
	return rev
}

// resetPeakRSS asks the kernel to restart peak-RSS accounting for this
// process ("5" in /proc/self/clear_refs). Best-effort: a failure just
// leaves VmHWM cumulative, and unsupported platforms report 0 anyway.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS reads VmHWM (peak resident set size, in bytes) from
// /proc/self/status, returning 0 where the file or field is unavailable.
func peakRSS() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		fields := strings.Fields(string(line[len("VmHWM:"):]))
		if len(fields) < 1 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}

// parseInts parses a comma-separated integer list, requiring each value
// to be at least min.
func parseInts(s string, min int) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad count %q: %w", part, err)
		}
		if v < min {
			return nil, fmt.Errorf("count %d must be at least %d", v, min)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list %q", s)
	}
	return out, nil
}
