package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildServeBinary compiles this command into a throwaway binary so the
// test can SIGKILL a real process — an in-process run() cannot model a
// crash, because Go offers no way to deliver an unmaskable kill to
// yourself without taking the test down too.
func buildServeBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "serve-under-test")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("building serve binary: %v\n%s", err, out)
	}
	return bin
}

// startServeProcess launches the built binary and returns its base URL
// and the running command.
func startServeProcess(t *testing.T, bin string, extra ...string) (string, *exec.Cmd) {
	t.Helper()
	args := append([]string{"-addr", "localhost:0", "-drain-timeout", "30s"}, extra...)
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting serve process: %v", err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("reading listen line: %v", err)
	}
	go io.Copy(io.Discard, stdout)
	base := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "serving on "))
	if !strings.HasPrefix(base, "http://") {
		t.Fatalf("unexpected listen line %q", line)
	}
	return base, cmd
}

// slowSpecJSON runs long enough to still be in flight when the test
// kills the server. It streams: a buffered run would first allocate
// 32 GB of sample slices, and a smaller host dies doing that before the
// test sees the job running.
const slowSpecJSON = `{"kind":"montecarlo","montecarlo":{"model":{"scenario":"safety-grade","scenarioSeed":7},"versions":2,"reps":2000000000,"workers":1,"seed":99,"streaming":true}}`

func submitSpec(t *testing.T, base, spec string) jobView {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit status = %d: %s", resp.StatusCode, body)
	}
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	return v
}

func getView(t *testing.T, base, id string) (int, jobView) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	defer resp.Body.Close()
	var v jobView
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("decoding job view: %v", err)
		}
	}
	return resp.StatusCode, v
}

func waitRunning(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if _, v := getView(t, base, id); v.Status == "running" {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never started running", id)
}

// TestServeCrashRecovery is the acceptance path for the durable ledger:
// SIGKILL a serve process mid-queue and restart it on the same
// -store-dir. The finished job must answer under its original ID with
// the full result, the jobs that were running and queued at the kill
// must surface as failed with a restart reason, resubmitting the
// finished spec must hit the warmed cache, and /metrics must report the
// replay.
func TestServeCrashRecovery(t *testing.T) {
	bin := buildServeBinary(t)
	storeDir := filepath.Join(t.TempDir(), "ledger")

	base, cmd := startServeProcess(t, bin, "-workers", "1", "-store-dir", storeDir)

	finished := submitSpec(t, base, specJSON)
	done := poll(t, base, finished.ID)
	if done.Status != "done" || done.Result == nil {
		t.Fatalf("pre-crash job: status %q", done.Status)
	}

	// One job running, one stuck behind it in the queue.
	running := submitSpec(t, base, slowSpecJSON)
	waitRunning(t, base, running.ID)
	queued := submitSpec(t, base, specJSON)

	// The crash: SIGKILL, no drain, no journal close.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("killing serve process: %v", err)
	}
	cmd.Wait()

	base2, _ := startServeProcess(t, bin, "-workers", "1", "-store-dir", storeDir)

	code, v := getView(t, base2, finished.ID)
	if code != http.StatusOK || v.Status != "done" || v.Result == nil || v.Result.MonteCarlo == nil {
		t.Fatalf("finished job after restart: code %d status %q", code, v.Status)
	}
	if v.Result.JobID != done.Result.JobID {
		t.Fatalf("stable job ID changed across restart: %q vs %q", v.Result.JobID, done.Result.JobID)
	}
	if v.Result.MonteCarlo.Version.Mean != done.Result.MonteCarlo.Version.Mean {
		t.Fatal("replayed result differs from the pre-crash one")
	}

	for _, id := range []string{running.ID, queued.ID} {
		code, v := getView(t, base2, id)
		if code != http.StatusOK || v.Status != "failed" {
			t.Fatalf("interrupted job %s after restart: code %d status %q", id, code, v.Status)
		}
		if !strings.Contains(v.Error, "restart") {
			t.Fatalf("interrupted job %s error = %q, want a restart reason", id, v.Error)
		}
	}

	// Resubmitting the pre-crash spec hits the warmed cache.
	again := submitSpec(t, base2, specJSON)
	av := poll(t, base2, again.ID)
	if av.Status != "done" || av.Result == nil || !av.Result.FromCache {
		t.Fatalf("pre-crash spec resubmitted: status %q fromCache %v", av.Status, av.Result != nil && av.Result.FromCache)
	}

	// The replay is observable on the Prometheus surface.
	resp, err := http.Get(base2 + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	replayed := false
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "store_replay_records_total ") && !strings.HasSuffix(line, " 0") {
			replayed = true
		}
	}
	if !replayed {
		t.Fatalf("store_replay_records_total missing or zero after restart:\n%s",
			grepLines(string(body), "store_"))
	}
}

// grepLines returns the lines of s containing substr, for failure
// output.
func grepLines(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
