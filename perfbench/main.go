// Command perfbench is the repository benchmark. It drives the whole job
// path — the Monte-Carlo kernel through the engine, one serve node with a
// durable ledger, and a coordinator over two such nodes — with a seeded
// closed-loop load from two clients, checks every result against the
// model's closed forms, and prints the metrics as one JSON line.
// BENCHMARK.json at the repository root names the workloads, metrics,
// units, directions and regression bounds; README.md in this directory
// explains them.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload mc-batched --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 -out bench.json
//	bash perfbench/run.sh --workload fabric-interactive --trace 1
//	bash perfbench/run.sh -compare base.json new.json
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// it carries the per-layer metrics, read from spans recorded around every
// call into a layer and from probes that time each layer's public
// functions. The last line of standard output is always the result.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// childEnv marks a process started by the benchmark itself (set-up timing
// and -workload all), so a test binary can route it back to run.
const childEnv = "PERFBENCH_CHILD"

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	name := flags.String("workload", "", "workload to run, or \"all\" to run each in its own process")
	seed := flags.Uint64("seed", 1, "workload seed: generates every job seed and every hit/miss choice")
	seconds := flags.Float64("seconds", 20, "length of the measured window in seconds")
	trace := flags.Int("trace", 0, "0 reports end-to-end metrics; 1 records spans and reports per-layer metrics")
	out := flags.String("out", "", "also write a JSON report with the run's header to this file")
	spans := flags.String("spans", "", "write the spans of a traced run to this file")
	compare := flags.Bool("compare", false, "compare two -out reports given as arguments: base.json new.json")
	benchFile := flags.String("bench", "BENCHMARK.json", "benchmark definition holding the regression bounds for -compare")
	setupOnly := flags.Bool("setup-only", false, "set the workload up, print \"ready\", tear it down and exit (times setup_s)")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if flags.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare takes two report files: base.json new.json")
			return 2
		}
		return compareReports(*benchFile, flags.Arg(0), flags.Arg(1), stdout, stderr)
	}
	if flags.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: unexpected arguments %q\n", flags.Args())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace %d: want 0 or 1\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: -seconds %v must be positive\n", *seconds)
		return 2
	}
	rep := newReport(*seed, *seconds, *trace)
	var err error
	switch {
	case *name == "all":
		err = runAll(ctx, &rep, *spans, stderr)
	case *setupOnly:
		w, ok := lookup(*name)
		if !ok {
			err = fmt.Errorf("unknown workload %q", *name)
			break
		}
		return setupChild(w, stdout, stderr)
	default:
		w, ok := lookup(*name)
		if !ok {
			err = fmt.Errorf("unknown workload %q (want one of %s, or all)", *name, strings.Join(workloadNames(), ", "))
			break
		}
		var res result
		res, err = runWorkload(ctx, w, options{
			seed: *seed, seconds: *seconds, trace: *trace == 1, spans: *spans, setups: setupRuns,
		})
		if err == nil {
			rep.Workloads[w.name] = res
			printTable(stderr, w.name, res)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(rep.summary())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runAll re-executes the benchmark once per workload, so heap, GC state
// and peak RSS never carry over from one workload to the next. Each child
// writes its own -out report, sample counts included, into a temporary
// directory, and runAll merges their results. Each child writes its spans
// next to the spans file, prefixed with its workload's name.
func runAll(ctx context.Context, rep *report, spans string, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "perfbench-all-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for _, w := range workloads {
		out := filepath.Join(dir, w.name+".json")
		childArgs := []string{"-workload", w.name, "-seed", strconv.FormatUint(rep.Seed, 10),
			"-seconds", strconv.FormatFloat(rep.Seconds, 'g', -1, 64), "-trace", strconv.Itoa(rep.Trace), "-out", out}
		if spans != "" {
			childArgs = append(childArgs, "-spans", filepath.Join(filepath.Dir(spans), w.name+"-"+filepath.Base(spans)))
		}
		cmd := exec.CommandContext(ctx, exe, childArgs...)
		cmd.Env = append(os.Environ(), childEnv+"=1")
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("workload %s: %w", w.name, err)
		}
		var child report
		if err := readJSON(out, &child); err != nil {
			return fmt.Errorf("workload %s: reading its report: %w", w.name, err)
		}
		res, ok := child.Workloads[w.name]
		if !ok {
			return fmt.Errorf("workload %s: its report holds no result for it", w.name)
		}
		rep.Workloads[w.name] = res
	}
	return nil
}

// setupChild is one timed set-up: the parent measures from process start
// until the "ready" line. No job runs, so no checker is needed.
func setupChild(w workload, stdout, stderr io.Writer) int {
	sys, err := setUp(w, nil, nil)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: set-up:", err)
		return 1
	}
	fmt.Fprintln(stdout, "ready")
	sys.close()
	return 0
}

// metric is one reported measurement. Samples, the count a percentile or
// median was taken over, goes to the -out report and the stderr table;
// the result line carries value and unit only.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is one workload run: the benchmark's result line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the -out document: the run's header and every workload's
// result.
type report struct {
	Bench      string            `json:"bench"`
	Commit     string            `json:"commit,omitempty"`
	GoVersion  string            `json:"go_version"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      int               `json:"trace"`
	Workloads  map[string]result `json:"workloads"`
}

func newReport(seed uint64, seconds float64, trace int) report {
	var settings []debug.BuildSetting
	if info, ok := debug.ReadBuildInfo(); ok {
		settings = info.Settings
	}
	return report{
		Bench:      "perfbench",
		Commit:     commit(settings, runGit),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		Workloads:  map[string]result{},
	}
}

// summary is the result line: a single workload's result, or for several
// workloads their combined verdict and counts with each result nested.
func (r report) summary() any {
	if len(r.Workloads) == 1 {
		for _, res := range r.Workloads {
			return res.withoutSamples()
		}
	}
	all := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Workloads map[string]result `json:"workloads"`
	}{Correct: true, Workloads: map[string]result{}}
	for name, res := range r.Workloads {
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		all.Workloads[name] = res.withoutSamples()
	}
	return all
}

func (r result) withoutSamples() result {
	out := r
	out.Metrics = make(map[string]metric, len(r.Metrics))
	for name, m := range r.Metrics {
		m.Samples = 0
		out.Metrics[name] = m
	}
	return out
}

// printTable writes every metric by name with its unit and sample count.
func printTable(w io.Writer, workload string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "perfbench: %-18s %-34s %14.6g %-6s n=%d\n", workload, name, m.Value, m.Unit, m.Samples)
	}
	fmt.Fprintf(w, "perfbench: %-18s correct=%v attempted=%d failed=%d\n", workload, res.Correct, res.Attempted, res.Failed)
}

func writeJSON(path string, v any) error {
	doc, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(doc, '\n'), 0o644)
}

// commit names the revision the binary was built from, suffixed "-dirty"
// when the tree had uncommitted changes: the build's VCS stamp when
// present, otherwise git itself. Empty when neither is available.
func commit(settings []debug.BuildSetting, git func(args ...string) (string, error)) string {
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

func runGit(args ...string) (string, error) {
	out, err := exec.Command("git", args...).Output()
	return string(out), err
}

// readLine returns the first line of r, without its newline.
func readLine(r io.Reader) (string, error) {
	line, err := bufio.NewReader(r).ReadString('\n')
	if err != nil && !errors.Is(err, io.EOF) {
		return "", err
	}
	return strings.TrimSuffix(line, "\n"), nil
}
