// Package cliutil holds the flag-handling helpers shared by the cmd/
// tools: model selection (previously duplicated verbatim between mcsim
// and diversity), fail-fast count validation, progress printing for
// engine-routed runs, and the shared observability surface — the
// -metrics-addr, -telemetry-json and -log-level flags every CLI exposes.
package cliutil

import (
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"slices"
	"strings"

	"diversity/internal/engine"
	"diversity/internal/modelfile"
	"diversity/internal/scenario"
	"diversity/internal/telemetry"
)

// JobModel builds the engine model spec selected by the -model/-scenario
// flag pair. A model file is loaded eagerly and inlined into the spec so
// that the job hash covers the model parameters rather than the path; a
// scenario's name is validated here, without generating the scenario,
// and the scenario is carried by reference (name + seed).
func JobModel(modelPath, scenarioName string, seed uint64) (engine.ModelSpec, error) {
	switch {
	case modelPath != "" && scenarioName != "":
		return engine.ModelSpec{}, fmt.Errorf("specify either -model or -scenario, not both")
	case modelPath != "":
		fs, name, err := modelfile.Load(modelPath)
		if err != nil {
			return engine.ModelSpec{}, err
		}
		return engine.ModelFromFaultSet(fs, name), nil
	case scenarioName != "":
		if names := scenario.Names(); !slices.Contains(names, scenarioName) {
			return engine.ModelSpec{}, fmt.Errorf("unknown scenario %q (want %s)", scenarioName, strings.Join(names, ", "))
		}
		return engine.ModelSpec{Scenario: scenarioName, ScenarioSeed: seed}, nil
	default:
		return engine.ModelSpec{}, fmt.Errorf("a model is required: pass -model <file> or -scenario <name>")
	}
}

// ValidateCounts fails fast — before any model loading or simulation
// work — on replication and worker counts no run mode accepts.
func ValidateCounts(reps, workers int) error {
	if reps < 1 {
		return fmt.Errorf("replication count %d must be at least 1 (pass -reps >= 1)", reps)
	}
	if workers < 0 {
		return fmt.Errorf("worker count %d must not be negative (0 means all cores)", workers)
	}
	return nil
}

// TelemetryFlags holds the values of the shared observability flags.
type TelemetryFlags struct {
	// MetricsAddr is the -metrics-addr value: the address to serve
	// expvar (/debug/vars) and pprof (/debug/pprof/) on, empty for off.
	MetricsAddr string
	// JSONPath is the -telemetry-json value: where to write the final
	// metrics snapshot, empty for off, "-" for stderr.
	JSONPath string
	// LogLevel is the -log-level value.
	LogLevel string
	// MaxTraces is the -max-traces value: how many recent run traces
	// the registry retains for snapshots and /debug/traces.
	MaxTraces int
}

// RegisterTelemetryFlags registers the shared observability flags —
// -metrics-addr, -telemetry-json and -log-level — on fs and returns the
// struct their values land in.
func RegisterTelemetryFlags(fs *flag.FlagSet) *TelemetryFlags {
	tf := &TelemetryFlags{}
	fs.StringVar(&tf.MetricsAddr, "metrics-addr", "", "serve expvar (/debug/vars) and pprof (/debug/pprof/) on this address (e.g. localhost:6060; empty = off)")
	fs.StringVar(&tf.JSONPath, "telemetry-json", "", "write the final telemetry snapshot as JSON to this file (\"-\" for stderr)")
	fs.StringVar(&tf.LogLevel, "log-level", "warn", "structured log level on stderr: debug | info | warn | error")
	fs.IntVar(&tf.MaxTraces, "max-traces", telemetry.DefaultMaxTraces, "number of recent run traces retained in snapshots and /debug/traces")
	return tf
}

// Telemetry is one CLI process's opened observability state: the
// metrics registry and logger to hand to the engine, plus the optional
// metrics listener and snapshot destination.
type Telemetry struct {
	Registry *telemetry.Registry
	Logger   *slog.Logger
	// Addr is the bound metrics listener address ("" when -metrics-addr
	// was not given); with ":0" the kernel picks the port, so Addr is
	// how callers learn it.
	Addr     string
	server   *http.Server
	sampler  *telemetry.HealthSampler
	jsonPath string
}

// Open builds the observability state the flags ask for: a logger at
// the requested level writing to stderr, a fresh metrics registry with
// the requested trace retention and a running runtime-health sampler,
// and — when -metrics-addr is set — a running HTTP listener with the
// registry published to expvar and Prometheus exposition on /metrics.
func (tf *TelemetryFlags) Open(stderr io.Writer) (*Telemetry, error) {
	logger, err := telemetry.NewLogger(stderr, tf.LogLevel)
	if err != nil {
		return nil, err
	}
	t := &Telemetry{Registry: telemetry.NewRegistry(), Logger: logger, jsonPath: tf.JSONPath}
	if tf.MaxTraces > 0 {
		t.Registry.SetMaxTraces(tf.MaxTraces)
	}
	t.sampler = telemetry.StartHealthSampler(t.Registry, telemetry.DefaultHealthInterval)
	if tf.MetricsAddr != "" {
		server, addr, err := ServeMetrics(tf.MetricsAddr, t.Registry)
		if err != nil {
			t.sampler.Stop()
			return nil, err
		}
		t.server, t.Addr = server, addr
		logger.Info("metrics listener started", "addr", addr)
	}
	return t, nil
}

// EngineOptions returns opts with the telemetry registry and logger
// attached.
func (t *Telemetry) EngineOptions(opts engine.Options) engine.Options {
	opts.Telemetry = t.Registry
	opts.Logger = t.Logger
	return opts
}

// Shutdown stops the metrics listener (if one is running) and the
// runtime-health sampler. Deferred by the CLIs so in-process test runs
// do not leak listeners or goroutines.
func (t *Telemetry) Shutdown() {
	if t.server != nil {
		t.server.Close()
	}
	t.sampler.Stop()
}

// Flush writes the final snapshot to the -telemetry-json destination;
// it is a no-op when the flag was not given.
func (t *Telemetry) Flush() error {
	if t.jsonPath == "" {
		return nil
	}
	return t.Registry.WriteJSONFile(t.jsonPath)
}

// NewDebugMux returns a fresh mux carrying the process debug surface:
// reg published to expvar under "telemetry", the expvar variables on
// /debug/vars, the net/http/pprof profiles under /debug/pprof/,
// Prometheus text exposition on /metrics, the flight-recorder ring on
// /debug/events, and retained run traces on /debug/traces. It is the
// single place the debug routes are assembled — ServeMetrics serves one
// standalone for the batch CLIs, and cmd/serve mounts its job API on
// the same mux so one listener carries both surfaces.
func NewDebugMux(reg *telemetry.Registry) *http.ServeMux {
	reg.PublishExpvar("telemetry")
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", telemetry.PromContentType)
		telemetry.WriteProm(w, reg.Snapshot())
	})
	mux.HandleFunc("GET /debug/events", func(w http.ResponseWriter, r *http.Request) {
		writeDebugJSON(w, map[string]any{"events": reg.Events().Snapshot()})
	})
	mux.HandleFunc("GET /debug/traces", func(w http.ResponseWriter, r *http.Request) {
		writeDebugJSON(w, map[string]any{"traces": reg.Traces()})
	})
	return mux
}

func writeDebugJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// ServeMetrics publishes reg to expvar under "telemetry" and starts an
// HTTP listener on addr serving the process expvar variables on
// /debug/vars and the net/http/pprof profiles under /debug/pprof/. It
// returns the running server and the bound address (useful with ":0").
func ServeMetrics(addr string, reg *telemetry.Registry) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("metrics listener: %w", err)
	}
	server := &http.Server{Handler: NewDebugMux(reg)}
	go server.Serve(ln)
	return server, ln.Addr().String(), nil
}

// ReportJob prints a finished run's stable job ID and cache disposition
// to w (conventionally stderr, next to the -progress output) — the
// CLI-side counterpart of the HTTP API's jobId/fromCache fields, making
// engine cache hits observable end-to-end.
func ReportJob(w io.Writer, res *engine.Result) {
	disposition := "computed"
	if res.FromCache {
		disposition = "served from cache"
	}
	fmt.Fprintf(w, "job %s: %s\n", res.ID, disposition)
}

// ProgressPrinter returns an engine progress hook that writes compact
// updates to w (conventionally stderr, keeping stdout byte-stable): one
// line per stage change and one per completed decile within a stage.
func ProgressPrinter(w io.Writer) func(engine.Progress) {
	lastStage := ""
	lastDecile := -1
	return func(p engine.Progress) {
		if p.Stage != lastStage {
			lastStage = p.Stage
			lastDecile = -1
		}
		if p.Total <= 0 {
			fmt.Fprintf(w, "progress: %s\n", p.Stage)
			return
		}
		decile := p.Done * 10 / p.Total
		if decile <= lastDecile {
			return
		}
		lastDecile = decile
		fmt.Fprintf(w, "progress: %s %3d%% (%d/%d)\n", p.Stage, p.Done*100/p.Total, p.Done, p.Total)
	}
}
