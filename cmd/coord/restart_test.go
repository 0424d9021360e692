package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildServeBinary compiles cmd/serve into a throwaway binary so the
// test can SIGKILL a real node behind the coordinator — an in-process
// node cannot model a crash.
func buildServeBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "serve-under-test")
	out, err := exec.Command("go", "build", "-o", bin, "diversity/cmd/serve").CombinedOutput()
	if err != nil {
		t.Fatalf("building serve binary: %v\n%s", err, out)
	}
	return bin
}

// reservePort asks the kernel for a free TCP port and releases it so the
// serve process can bind the same address — the coordinator's static
// -nodes list must survive the node's restart.
func reservePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// startNodeProcess launches a serve process pinned to addr.
func startNodeProcess(t *testing.T, bin, addr, storeDir string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, "-addr", addr, "-workers", "1", "-store-dir", storeDir)
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
	if _, err := bufio.NewReader(stdout).ReadString('\n'); err != nil {
		t.Fatalf("reading node listen line: %v", err)
	}
	go io.Copy(io.Discard, stdout)
	return cmd
}

type coordView struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Error  string `json:"error"`
	Result *struct {
		JobID     string `json:"jobId"`
		FromCache bool   `json:"fromCache"`
	} `json:"result"`
}

func coordSubmit(t *testing.T, base, spec string) coordView {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var v coordView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	return v
}

func coordGet(t *testing.T, base, id string) (int, coordView) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	defer resp.Body.Close()
	var v coordView
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("decoding job view: %v", err)
		}
	}
	return resp.StatusCode, v
}

func coordWait(t *testing.T, base, id string, want func(coordView) bool, what string) coordView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if code, v := coordGet(t, base, id); code == http.StatusOK && want(v) {
			return v
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, what)
	return coordView{}
}

func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("coordinator never became ready")
}

const fastSpec = `{"kind":"montecarlo","montecarlo":{"model":{"scenario":"safety-grade","scenarioSeed":7},"versions":2,"reps":100000,"workers":2,"seed":42}}`

// slowSpec streams: a buffered run would first allocate 32 GB of sample
// slices, and a smaller host dies doing that before the test sees the
// job running.
const slowSpec = `{"kind":"montecarlo","montecarlo":{"model":{"scenario":"safety-grade","scenarioSeed":7},"versions":2,"reps":2000000000,"workers":1,"seed":99,"streaming":true}}`

// TestCoordCrashRecovery drives the PR 8 durability contract through the
// coordinator: SIGKILL the node under it, restart it on the same port
// and -store-dir, and check that the finished job answers under its
// original ID via the coordinator, the interrupted job surfaces the
// contractual "restart" failure reason, and the warmed cache is
// observable through the proxy.
func TestCoordCrashRecovery(t *testing.T) {
	bin := buildServeBinary(t)
	storeDir := filepath.Join(t.TempDir(), "ledger")
	nodeAddr := reservePort(t)

	node := startNodeProcess(t, bin, nodeAddr, storeDir)
	base, _, _ := startCoord(t, "http://"+nodeAddr)
	waitReady(t, base)

	finished := coordSubmit(t, base, fastSpec)
	done := coordWait(t, base, finished.ID, func(v coordView) bool { return v.Status == "done" }, "done")
	if done.Result == nil || done.Result.JobID == "" {
		t.Fatal("finished job carries no result through the coordinator")
	}

	running := coordSubmit(t, base, slowSpec)
	coordWait(t, base, running.ID, func(v coordView) bool { return v.Status == "running" }, "running")

	// The crash: SIGKILL the node, no drain, no journal close.
	if err := node.Process.Kill(); err != nil {
		t.Fatalf("killing node: %v", err)
	}
	node.Wait()

	// While the node is down its jobs answer 503 through the
	// coordinator — the fabric refuses to turn "down" into "unknown".
	downDeadline := time.Now().Add(10 * time.Second)
	for {
		code, _ := coordGet(t, base, finished.ID)
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(downDeadline) {
			t.Fatalf("fetch with node down = %d, want 503", code)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The node returns on the same address with the same ledger.
	startNodeProcess(t, bin, nodeAddr, storeDir)
	waitReady(t, base)

	v := coordWait(t, base, finished.ID, func(v coordView) bool { return v.Status == "done" }, "done after restart")
	if v.Result == nil || v.Result.JobID != done.Result.JobID {
		t.Fatalf("finished job after restart lost its stable ID: %+v", v)
	}

	iv := coordWait(t, base, running.ID, func(v coordView) bool { return v.Status == "failed" }, "failed after restart")
	if !strings.Contains(iv.Error, "restart") {
		t.Fatalf("interrupted job error = %q, want the contractual restart reason", iv.Error)
	}

	// The warmed cache is observable through the proxy.
	again := coordSubmit(t, base, fastSpec)
	av := coordWait(t, base, again.ID, func(v coordView) bool { return v.Status == "done" }, "done from cache")
	if av.Result == nil || !av.Result.FromCache {
		t.Fatalf("pre-crash spec resubmitted through coordinator: fromCache %v", av.Result != nil && av.Result.FromCache)
	}
}
