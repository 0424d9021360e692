// Command coord runs the sharding coordinator of the multi-node job
// fabric: an HTTP front that exposes the exact serve-node API
// (docs/API.md) and routes every request across a static list of serve
// nodes by rendezvous-hashing the stable spec-hash job ID. Identical
// specs always land on the same node, so the node-local engine cache
// and durable ledger stay observable end to end (fromCache, stable
// jobId) — by contract a client cannot tell the coordinator from a
// single node.
//
// Endpoints are the serve surface verbatim (POST/GET/DELETE /v1/jobs,
// SSE progress, /v1/scenarios, /healthz, /readyz) plus the shared debug
// surface (/metrics, /debug/vars, /debug/events, /debug/traces,
// /debug/pprof/). X-Request-ID correlation spans both hops: the ID the
// coordinator accepts or generates is forwarded to the node, so one ID
// names the request in both processes' logs and flight recorders.
//
// Each node is probed on its own loop (GET /healthz, -probe-interval /
// -probe-timeout) and exported as a fabric.node_up gauge. Node
// backpressure (queue-full 503, rate-limit 429, with Retry-After)
// passes through verbatim; the coordinator adds its own 503s only when
// no healthy node exists. When a job's home node is down, submissions
// re-route to the next node in hash order (fabric.node_reroutes_total),
// and an SSE stream whose node dies mid-run is recovered by re-polling
// until the restarted node surfaces the job's terminal view — for an
// interrupted job, the contractual "restart" failure reason.
// docs/OPERATIONS.md carries the deployment runbook.
//
// Usage:
//
//	coord -addr localhost:9090 -nodes http://10.0.0.1:8080,http://10.0.0.2:8080
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
	"strings"
	"syscall"
	"time"

	"diversity/internal/cliutil"
	"diversity/internal/fabric"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "coord:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	flags := flag.NewFlagSet("coord", flag.ContinueOnError)
	addr := flags.String("addr", "localhost:9090", "listen address (\":0\" picks a free port; the bound address is printed on stdout)")
	nodes := flags.String("nodes", "", "comma-separated serve-node base URLs, e.g. http://10.0.0.1:8080,http://10.0.0.2:8080 (required); list order is node identity in metrics")
	probeInterval := flags.Duration("probe-interval", time.Second, "per-node health-probe cadence")
	probeTimeout := flags.Duration("probe-timeout", time.Second, "health-probe timeout")
	proxyTimeout := flags.Duration("proxy-timeout", 30*time.Second, "upstream timeout for non-streaming proxied requests")
	recoveryInterval := flags.Duration("recovery-interval", time.Second, "poll cadence when recovering an SSE stream across a node restart")
	drainTimeout := flags.Duration("drain-timeout", 30*time.Second, "grace for outstanding proxied requests on shutdown")
	tf := cliutil.RegisterTelemetryFlags(flags)
	if err := flags.Parse(args); err != nil {
		return err
	}
	var nodeList []string
	for _, n := range strings.Split(*nodes, ",") {
		if n = strings.TrimSpace(n); n != "" {
			nodeList = append(nodeList, n)
		}
	}
	if len(nodeList) == 0 {
		return fmt.Errorf("-nodes is required: a comma-separated list of serve-node base URLs")
	}

	tel, err := tf.Open(os.Stderr)
	if err != nil {
		return err
	}
	defer tel.Shutdown()

	coord, err := fabric.New(fabric.Config{
		Nodes:            nodeList,
		ProbeInterval:    *probeInterval,
		ProbeTimeout:     *probeTimeout,
		ProxyTimeout:     *proxyTimeout,
		RecoveryInterval: *recoveryInterval,
		Registry:         tel.Registry,
		Logger:           tel.Logger,
	})
	if err != nil {
		return err
	}

	// One listener carries the proxied job API and the coordinator's own
	// debug surface, exactly like a serve node.
	mux := cliutil.NewDebugMux(tel.Registry)
	coord.Register(mux)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	httpSrv := &http.Server{Handler: mux}
	coord.Start()
	fmt.Fprintf(out, "coordinating on http://%s\n", ln.Addr())
	tel.Logger.Info("coordinator started", "addr", ln.Addr().String(), "nodes", len(nodeList))

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return fmt.Errorf("http server: %w", err)
	case <-ctx.Done():
	}

	// Graceful drain: stop probes, flip readiness to 503, end open SSE
	// streams with a draining event, then close the listener once
	// outstanding proxied requests finish. The nodes are untouched —
	// they drain on their own schedule.
	tel.Logger.Info("draining", "timeout", drainTimeout.String())
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := coord.Shutdown(drainCtx)
	httpErr := httpSrv.Shutdown(drainCtx)
	if err := tel.Flush(); err != nil {
		return err
	}
	if drainErr != nil {
		return fmt.Errorf("drain: %w", drainErr)
	}
	if httpErr != nil {
		return fmt.Errorf("drain: closing listener: %w", httpErr)
	}
	tel.Logger.Info("drained cleanly")
	return nil
}
