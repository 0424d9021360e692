// Command serve runs the simulation-as-a-service layer: an HTTP/JSON
// API accepting engine job specs (POST /v1/jobs) and executing them on a
// bounded worker pool over the unified execution engine, so the result
// cache, cancellation and telemetry of the batch CLIs apply verbatim to
// served jobs.
//
// Endpoints (see docs/API.md for the full contract):
//
//	POST   /v1/jobs             submit a job spec; 202 + job resource
//	GET    /v1/jobs             list retained jobs
//	GET    /v1/jobs/{id}        poll status; result inline when done
//	DELETE /v1/jobs/{id}        cancel (queued or running)
//	GET    /v1/jobs/{id}/events live progress as Server-Sent Events
//	GET    /v1/scenarios        named scenarios a spec may reference
//	GET    /healthz, /readyz    liveness / readiness probes
//	GET    /metrics             Prometheus text exposition
//	GET    /debug/vars          process metrics (expvar, incl. telemetry)
//	GET    /debug/events        flight recorder: recent lifecycle events
//	GET    /debug/traces        retained run traces (see -max-traces)
//	GET    /debug/pprof/        live profiles
//
// Every request is correlated: the X-Request-ID header (accepted or
// generated) becomes the engine run ID, is echoed on the response,
// stamped as run= on every log line, and carried by SSE progress
// events, job views, flight-recorder events and trace snapshots.
//
// Backpressure is part of the contract: a full queue rejects with 503 +
// Retry-After, a per-client token bucket (-rate/-burst) rejects with
// 429, and -max-reps caps a single job's replication count. SIGINT or
// SIGTERM drains gracefully — in-flight jobs complete (up to
// -drain-timeout), queued jobs are rejected, then the listener closes.
//
// With -store-dir set, the job ledger is durable: every submission and
// terminal transition is journaled to a crash-safe append-only log
// (fsync policy via -fsync, compaction cadence via -compact-every), and
// a restart replays it — finished results are fetchable again under
// their original IDs, resubmitting a pre-restart spec hits the warmed
// result cache, and jobs that were queued or running at the crash
// surface as failed with a restart reason. docs/OPERATIONS.md is the
// operator handbook.
//
// To scale past one node's worker pool, run several serve nodes behind
// cmd/coord: the coordinator exposes this same API and shards requests
// across nodes by the stable spec-hash job ID (see docs/API.md
// "Fabric").
//
// Usage:
//
//	serve -addr localhost:8080 -workers 2 -queue-depth 64 -rate 10 -max-reps 1000000 -store-dir /var/lib/diversity/jobs
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"diversity/internal/cliutil"
	"diversity/internal/server"
	"diversity/internal/store"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	flags := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := flags.String("addr", "localhost:8080", "listen address (\":0\" picks a free port; the bound address is printed on stdout)")
	workers := flags.Int("workers", 0, "worker-pool size (0 = all cores); each worker runs one job at a time")
	queueDepth := flags.Int("queue-depth", 64, "accepted-but-not-started job bound; a full queue rejects with 503")
	rate := flags.Float64("rate", 0, "per-client submissions per second (0 = unlimited); over-budget clients get 429")
	burst := flags.Int("burst", 0, "per-client burst size (0 = 2*rate, min 1)")
	maxReps := flags.Int("max-reps", 0, "largest replication count a single job may ask for (0 = uncapped)")
	retainJobs := flags.Int("retain-jobs", 1024, "retained-job cap: the oldest terminal jobs beyond it are evicted from the ledger (including the durable store) — a retention policy, not a crash-loss bound")
	cacheSize := flags.Int("cache-size", 0, "engine result-cache entries (0 = engine default)")
	storeDir := flags.String("store-dir", "", "durable job-ledger directory; empty serves from memory only (results do not survive restarts)")
	fsyncPolicy := flags.String("fsync", store.FsyncAlways, "journal fsync policy: \"always\" syncs every record, \"off\" leaves flushing to the OS")
	compactEvery := flags.Int("compact-every", 4096, "journal records appended before the ledger is compacted into a snapshot (0 = default)")
	drainTimeout := flags.Duration("drain-timeout", 30*time.Second, "grace for in-flight jobs on shutdown; when exceeded they are cancelled")
	tf := cliutil.RegisterTelemetryFlags(flags)
	if err := flags.Parse(args); err != nil {
		return err
	}
	if *queueDepth < 1 {
		return fmt.Errorf("queue depth %d must be at least 1", *queueDepth)
	}
	if *workers < 0 {
		return fmt.Errorf("worker count %d must not be negative (0 means all cores)", *workers)
	}

	tel, err := tf.Open(os.Stderr)
	if err != nil {
		return err
	}
	defer tel.Shutdown()

	// The durable job ledger. Opening replays the journal (the server
	// picks the replayed state up through Config.Store), and closing
	// after the drain syncs the final records.
	var st *store.Store
	if *storeDir != "" {
		st, err = store.Open(store.Options{
			Dir:          *storeDir,
			Fsync:        *fsyncPolicy,
			CompactEvery: *compactEvery,
			Registry:     tel.Registry,
			Logger:       tel.Logger,
		})
		if err != nil {
			return err
		}
		defer st.Close()
	}

	srv := server.New(server.Config{
		Workers:    *workers,
		QueueDepth: *queueDepth,
		RatePerSec: *rate,
		Burst:      *burst,
		MaxReps:    *maxReps,
		RetainJobs: *retainJobs,
		CacheSize:  *cacheSize,
		Store:      st,
		Registry:   tel.Registry,
		Logger:     tel.Logger,
	})

	// One listener carries both surfaces: the job API and the debug
	// routes (/debug/vars with the telemetry registry, /debug/pprof/).
	mux := cliutil.NewDebugMux(tel.Registry)
	srv.Register(mux)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	httpSrv := &http.Server{Handler: mux}
	srv.Start()
	fmt.Fprintf(out, "serving on http://%s\n", ln.Addr())
	tel.Logger.Info("server started", "addr", ln.Addr().String(), "workers", *workers, "queue_depth", *queueDepth)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return fmt.Errorf("http server: %w", err)
	case <-ctx.Done():
	}

	// Graceful drain: flip to draining first (new submissions get 503,
	// SSE streams get a "draining" event, queued jobs go terminal,
	// in-flight jobs run to completion within the grace), then close the
	// listener once outstanding requests have finished.
	tel.Logger.Info("draining", "timeout", drainTimeout.String())
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := srv.Shutdown(drainCtx)
	httpErr := httpSrv.Shutdown(drainCtx)
	if err := tel.Flush(); err != nil {
		return err
	}
	if drainErr != nil {
		return fmt.Errorf("drain: in-flight jobs were cancelled after %s: %w", drainTimeout.String(), drainErr)
	}
	if httpErr != nil {
		return fmt.Errorf("drain: closing listener: %w", httpErr)
	}
	tel.Logger.Info("drained cleanly")
	return nil
}
