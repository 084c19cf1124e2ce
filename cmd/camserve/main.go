// Command camserve exposes the benchmark suite as a long-running
// simulation service (docs/OBSERVABILITY.md, "Service metrics"): every
// POST /run is one real simulation on a pooled, snapshot-restored
// machine, the aggregate behaviour streams out of GET /metrics in
// Prometheus text format, and GET /runs is the run ledger.
//
// The ledger is crash-safe (docs/ROBUSTNESS.md, "Serving-layer
// robustness"): with -wal set, every run's lifecycle — accepted →
// running → ok/failed/rejected/timeout — is appended to a CRC-checked
// write-ahead log, so a restarted daemon serves its history back and
// surfaces runs that were in flight at the crash as `interrupted`.
// In front of the run path sits admission control: a bounded
// per-benchmark queue with per-request deadlines (the -run-timeout
// default, tightened by a client `Request-Timeout` header), jittered
// `Retry-After` hints on shed load, and per-request panic isolation —
// a panicking simulation costs one 500 and a `failed` ledger row, not
// the daemon. Shutdown drains in-flight runs under -drain-timeout and
// records whatever could not finish as `aborted`.
//
// Every request is traced end to end (docs/OBSERVABILITY.md, "Request
// tracing & the flight recorder"): camserve joins the caller's W3C
// `traceparent` (or mints a root), records a span per phase — queue
// wait, pool acquire, snapshot restore, simulation, WAL append, JSON
// encode — and keeps the finished timeline in a bounded flight
// recorder, queryable per run id as a JSON debug bundle or a
// Chrome/Perfetto trace.
//
// Usage:
//
//	camserve                    # listen on :8080, in-memory ledger
//	camserve -wal /var/lib/cam  # durable, crash-recoverable run ledger
//	camserve -addr :9090        # another port
//	camserve -max-inflight 8    # concurrent run slots
//	camserve -queue-depth 16    # queued waiters per benchmark (0 = shed immediately)
//	camserve -run-timeout 60s   # default per-request deadline
//	camserve -drain-timeout 30s # graceful-shutdown drain budget
//	camserve -ledger 256        # runs retained by GET /runs and the flight recorder
//	camserve -seed 7            # benchmark generation seed
//	camserve -chaos 'restore-fail=0.1,panic=0.05'  # service-path fault injection
//	camserve -log-format json   # structured access logs (default text)
//	camserve -debug-addr :6060  # opt-in net/http/pprof listener
//
// Endpoints:
//
//	GET  /metrics          Prometheus text exposition (version 0.0.4,
//	                       simulator + ledger + Go runtime families)
//	GET  /healthz          liveness (200 once the listener is up)
//	GET  /readyz           readiness (200 once programs are generated)
//	POST /run              {"benchmark":"MLP"} -> one simulation, JSON result
//	GET  /runs             retained runs, newest first (incl. recovered rows)
//	GET  /runs/{id}        per-run debug bundle: span timeline, CPI-stack
//	                       stall breakdown, restore bytes, trace id
//	GET  /runs/{id}/trace  the span timeline as Chrome Trace Event JSON
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cambricon"
	"cambricon/internal/bench"
	"cambricon/internal/chaos"
	"cambricon/internal/ledger"
	"cambricon/internal/metrics"
	"cambricon/internal/reqtrace"
	"cambricon/internal/sim"
	"cambricon/internal/trace"
)

// Metric names owned by the HTTP layer (the suite's own instruments are
// the cambricon_bench_*/cambricon_pool_*/cambricon_snapshot_* families,
// see internal/bench; the ledger's are cambricon_ledger_*, see
// internal/ledger; admission's are in admission.go; the Go runtime
// families are cambricon_go_*, see internal/metrics).
const (
	metricRequests  = "cambricon_serve_requests_total"
	metricInFlight  = "cambricon_serve_runs_in_flight"
	metricRunsTotal = "cambricon_serve_ledger_runs_total"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	seed := flag.Uint64("seed", 7, "benchmark generation seed")
	maxInflight := flag.Int("max-inflight", 8, "concurrent POST /run run slots")
	queueDepth := flag.Int("queue-depth", 16, "queued POST /run waiters per benchmark; excess sheds with 503 (0 disables queueing)")
	runTimeout := flag.Duration("run-timeout", 60*time.Second, "default per-request deadline; a client Request-Timeout header may tighten it")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for draining in-flight runs; the rest are recorded as aborted")
	ledgerSize := flag.Int("ledger", 256, "runs retained by GET /runs and the /runs/{id} flight recorder")
	walDir := flag.String("wal", "", "run-ledger WAL directory for crash-safe history; empty keeps the ledger in memory only")
	walSync := flag.Bool("wal-sync", false, "fsync every WAL append (survive power loss, not just crashes)")
	walSegBytes := flag.Int64("wal-segment-bytes", 1<<20, "WAL segment rotation threshold in bytes")
	chaosSpec := flag.String("chaos", "", "service-path chaos spec, e.g. 'seed=7,restore-fail=0.1,panic=0.05,wal-tear=3' (docs/ROBUSTNESS.md)")
	logFormat := flag.String("log-format", "text", "access-log encoding: text or json")
	debugAddr := flag.String("debug-addr", "", "optional listen address for net/http/pprof (e.g. 127.0.0.1:6060); empty disables")
	version := flag.Bool("version", false, "print the simulator version and exit")
	flag.Parse()

	if *version {
		fmt.Printf("camserve %s (cambricon-bench-sim)\n", cambricon.Version)
		return
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "camserve: unexpected arguments %q (all inputs are flags)\n", flag.Args())
		os.Exit(2)
	}
	logger, err := buildLogger(os.Stderr, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "camserve: %v\n", err)
		os.Exit(2)
	}
	srv, err := newServer(serverConfig{
		seed:            *seed,
		maxInflight:     *maxInflight,
		queueDepth:      *queueDepth,
		ledgerSize:      *ledgerSize,
		runTimeout:      *runTimeout,
		drainTimeout:    *drainTimeout,
		walDir:          *walDir,
		walSync:         *walSync,
		walSegmentBytes: *walSegBytes,
		chaosSpec:       *chaosSpec,
	}, logger)
	if err != nil {
		fmt.Fprintf(os.Stderr, "camserve: %v\n", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	httpSrv := &http.Server{Addr: *addr, Handler: srv.handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	go srv.warmup()
	if *debugAddr != "" {
		go func() {
			logger.Info("pprof debug listener", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, debugHandler()); err != nil {
				logger.Error("debug listener failed", "err", err)
			}
		}()
	}
	logger.Info("camserve listening", "addr", *addr, "version", cambricon.Version)

	select {
	case err := <-errCh:
		logger.Error("listener failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	logger.Info("shutting down", "drain", *drainTimeout)
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Drain order: stop admitting (queued waiters shed fast), let the
	// HTTP server wait for in-flight handlers, then record whatever is
	// still running as aborted and seal the WAL.
	srv.adm.startDrain()
	shutErr := httpSrv.Shutdown(shutCtx)
	aborted := srv.finalize(shutCtx)
	if shutErr != nil {
		logger.Error("shutdown incomplete", "err", shutErr, "aborted_runs", aborted)
		os.Exit(1)
	}
}

// buildLogger selects the slog handler for the access log: "text" (the
// default, human-oriented) or "json" (one object per line, the shape
// log aggregators ingest without a parse rule).
func buildLogger(w *os.File, format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, nil)), nil
	}
	return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
}

// debugHandler serves the net/http/pprof endpoints on a private mux, so
// profiling never rides the public listener and nothing registers on
// http.DefaultServeMux.
func debugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serverConfig is everything newServer needs; main fills it from flags,
// tests construct it directly.
type serverConfig struct {
	seed            uint64
	maxInflight     int
	queueDepth      int
	ledgerSize      int
	runTimeout      time.Duration
	drainTimeout    time.Duration
	walDir          string
	walSync         bool
	walSegmentBytes int64
	chaosSpec       string
}

// server wires the benchmark suite, its metrics registry, the durable
// run ledger, admission control and the flight recorder behind the HTTP
// handlers.
type server struct {
	cfg     serverConfig
	suite   *bench.Suite
	reg     *metrics.Registry
	runtime *metrics.RuntimeBridge
	logger  *slog.Logger

	// adm bounds concurrent runs and the per-benchmark wait queues;
	// everything it sheds is a fast 503 with a jittered Retry-After.
	// inFlight counts the admitted runs holding a slot.
	adm      *admission
	inFlight *metrics.Gauge

	// ledger is the durable (or, without -wal, in-memory) run history
	// behind GET /runs; recovery summarizes what boot replayed.
	ledger    *ledger.Ledger
	recovery  ledger.Recovery
	configKey string

	// inflight tracks the rows of currently executing runs so shutdown
	// can record un-drained work as aborted instead of dropping it.
	inflight sync.Map
	runWG    sync.WaitGroup

	// flight retains the per-run debug bundles GET /runs/{id} and
	// /runs/{id}/trace serve, bounded to the same depth as the ledger.
	flight *reqtrace.Store[*runDebug]

	// ready flips once warmup has generated the programs; it is the
	// whole of what /readyz reports.
	ready atomic.Bool

	// retry seeds the jittered Retry-After hints so shed clients spread
	// their retries instead of stampeding back in lockstep.
	retryMu sync.Mutex
	retry   *rand.Rand
}

func newServer(cfg serverConfig, logger *slog.Logger) (*server, error) {
	if cfg.maxInflight <= 0 {
		cfg.maxInflight = 1
	}
	if cfg.ledgerSize <= 0 {
		cfg.ledgerSize = 1
	}
	if cfg.runTimeout <= 0 {
		cfg.runTimeout = 60 * time.Second
	}
	reg := metrics.New()
	ch, err := chaos.Parse(cfg.chaosSpec)
	if err != nil {
		return nil, err
	}
	ch.SetMetrics(reg)
	led, recovery, err := ledger.Open(ledger.Options{
		Dir:          cfg.walDir,
		SegmentBytes: cfg.walSegmentBytes,
		Retain:       cfg.ledgerSize,
		Sync:         cfg.walSync,
		Metrics:      reg,
		Logger:       logger,
		Chaos:        ch,
	})
	if err != nil {
		return nil, err
	}
	suite := bench.NewSuite(cfg.seed)
	suite.Metrics = reg
	suite.Chaos = ch
	s := &server{
		cfg:       cfg,
		suite:     suite,
		reg:       reg,
		runtime:   metrics.NewRuntimeBridge(reg),
		logger:    logger,
		adm:       newAdmission(cfg.maxInflight, cfg.queueDepth, reg),
		inFlight:  reg.Gauge(metricInFlight, "POST /run simulations currently executing"),
		ledger:    led,
		recovery:  recovery,
		configKey: suite.ConfigKey(),
		flight:    reqtrace.NewStore[*runDebug](cfg.ledgerSize),
		retry:     rand.New(rand.NewPCG(cfg.seed, 0x52657472)),
	}
	if ch != nil {
		logger.Warn("chaos enabled", "spec", cfg.chaosSpec, "seed", ch.Seed())
	}
	if recovery.Rows > 0 || recovery.TornTail {
		logger.Info("ledger recovered",
			"rows", recovery.Rows, "interrupted", recovery.Interrupted,
			"events", recovery.Events, "segments", recovery.Segments,
			"torn_tail", recovery.TornTail)
	}
	return s, nil
}

// warmup pays the one-time program-generation cost off the request path
// and then flips readiness. A generation failure is fatal to readiness
// but not liveness — /healthz keeps answering so the failure is
// observable where the probes look.
func (s *server) warmup() {
	if _, err := s.suite.Programs(); err != nil {
		s.logger.Error("program generation failed; staying unready", "err", err)
		return
	}
	s.ready.Store(true)
	s.logger.Info("ready", "benchmarks", "generated")
}

// finalize waits (within ctx) for in-flight runs to drain, records any
// still-running request in the ledger as aborted instead of dropping it
// silently, and seals the WAL. It returns the aborted-run count.
func (s *server) finalize(ctx context.Context) int {
	done := make(chan struct{})
	go func() { s.runWG.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
	}
	n := 0
	s.inflight.Range(func(_, v any) bool {
		row := v.(ledger.Row)
		row.Status = ledger.StatusAborted
		row.Error = "camserve shut down before the run finished"
		s.append(context.Background(), row)
		n++
		return true
	})
	if n > 0 {
		s.logger.Warn("drain deadline expired; still-running requests recorded as aborted", "count", n)
	}
	if err := s.ledger.Close(); err != nil {
		s.logger.Error("ledger close", "err", err)
	}
	return n
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("POST /run", s.handleRun)
	mux.HandleFunc("GET /runs", s.handleRuns)
	mux.HandleFunc("GET /runs/{id}", s.handleRunByID)
	mux.HandleFunc("GET /runs/{id}/trace", s.handleRunTrace)
	return s.logRequests(mux, s.recoverPanics(mux))
}

// logRequests is the tracing + slog access-log middleware: it joins (or
// mints) the request's W3C trace via the traceparent header, attaches a
// recorder to the context for the handlers to span, echoes the outgoing
// traceparent on the response, feeds the per-route request counter, and
// logs every request (with its raw path) and its trace id so log lines
// join against GET /runs/{id}.
func (s *server) logRequests(mux *http.ServeMux, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		tp, _ := reqtrace.ParseTraceparent(r.Header.Get("traceparent"))
		rec := reqtrace.NewRecorder("request", tp)
		rec.AnnotateStr(reqtrace.Root, "method", r.Method)
		rec.AnnotateStr(reqtrace.Root, "path", r.URL.Path)
		w.Header().Set("traceparent", rec.Traceparent())
		srec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(srec, r.WithContext(reqtrace.With(r.Context(), rec)))
		s.reg.Counter(metricRequests, "HTTP requests served, by route and status",
			metrics.L("path", routeLabel(mux, r)), metrics.L("code", fmt.Sprint(srec.status))).Inc()
		s.logger.Info("request",
			"method", r.Method, "path", r.URL.Path, "status", srec.status,
			"dur", time.Since(start).Round(time.Microsecond),
			"trace_id", rec.TraceID())
	})
}

// unmatchedRoute is the request counter's path label for every request
// no route serves.
const unmatchedRoute = "unmatched"

// routeLabel is the path of the route r matched ("/runs/{id}", never
// "/runs/17"), so the request counter holds one series per route however
// many distinct paths clients send; paths no route serves share
// unmatchedRoute. (ServeMux.Handler rather than Request.Pattern, which
// needs Go 1.23.)
func routeLabel(mux *http.ServeMux, r *http.Request) string {
	_, pattern := mux.Handler(r)
	if _, path, ok := strings.Cut(pattern, " "); ok {
		return path
	}
	return unmatchedRoute
}

// recoverPanics is the handler-level isolation boundary: a panicking
// handler is a bug, but it must cost one 500, not the daemon. (The run
// path has a second, tighter guard so a panicking simulation also gets
// a failed ledger row; this one catches everything else.)
func (s *server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.logger.Error("handler panic", "path", r.URL.Path, "panic", fmt.Sprint(rec))
				// Best-effort: if the handler already wrote a header this
				// write is a no-op on the status.
				writeJSONError(w, http.StatusInternalServerError, "internal error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.runtime.Collect()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		s.logger.Error("metrics write", "err", err)
	}
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		http.Error(w, "generating benchmark programs", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

// runRequest is the POST /run body.
type runRequest struct {
	Benchmark string `json:"benchmark"`
}

// maxRunBody bounds how much of a POST /run body the daemon reads:
// about 100 times the longest valid body,
// {"benchmark":"Sparse Autoencoder"}. A longer body is a 413.
const maxRunBody = 4 << 10

// runRecord is one ledger row (and the POST /run success body) — the
// durable shape lives in internal/ledger.
type runRecord = ledger.Row

// requestTimeout resolves the run deadline: the -run-timeout default,
// tightened (never extended) by a client `Request-Timeout` header given
// as a Go duration ("2s", "500ms") or a plain number of seconds. The
// header is compared with the default before it is converted, so a
// value too large for a time.Duration leaves the default.
func (s *server) requestTimeout(r *http.Request) time.Duration {
	d := s.cfg.runTimeout
	h := strings.TrimSpace(r.Header.Get("Request-Timeout"))
	if h == "" {
		return d
	}
	if dur, err := time.ParseDuration(h); err == nil && dur > 0 && dur < d {
		return dur
	}
	if secs, err := strconv.ParseFloat(h, 64); err == nil && secs > 0 && secs < d.Seconds() {
		return time.Duration(secs * float64(time.Second))
	}
	return d
}

// retryAfter returns the Retry-After hint for a shed request: a jittered
// 1..4s from a seeded stream, so shed clients spread their retries
// instead of stampeding back in lockstep.
func (s *server) retryAfter() int {
	s.retryMu.Lock()
	defer s.retryMu.Unlock()
	return 1 + s.retry.IntN(4)
}

// append records row in the ledger. Persistence failures are logged by
// the ledger and must not fail the request — the daemon keeps serving
// with degraded durability.
func (s *server) append(ctx context.Context, row ledger.Row) {
	_ = s.ledger.Append(ctx, row)
}

// runGuarded is the per-request panic isolation boundary around the
// simulation: a panic anywhere below (the suite has its own recover,
// this one backstops the wiring above it) becomes this run's error —
// one 500 and a failed ledger row, never a dead daemon.
func (s *server) runGuarded(ctx context.Context, name string) (st sim.Stats, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("run panic: %v", r)
		}
	}()
	return s.suite.RunOnce(ctx, name)
}

func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	rec := reqtrace.From(r.Context())
	var req runRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRunBody)).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSONError(w, status, fmt.Sprintf("bad request body: %v", err))
		return
	}
	if req.Benchmark == "" {
		writeJSONError(w, http.StatusBadRequest, `missing "benchmark"`)
		return
	}
	if _, err := s.suite.Program(req.Benchmark); err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Every validated request gets a durable ledger identity, including
	// the ones admission sheds — a 503 is an outcome worth debugging too.
	row := ledger.Row{
		ID:        s.ledger.NewID(),
		Benchmark: req.Benchmark,
		ConfigKey: s.configKey,
		TraceID:   rec.TraceID(),
		Start:     time.Now().UTC().Format(time.RFC3339Nano),
		Status:    ledger.StatusAccepted,
	}
	rec.AnnotateInt(reqtrace.Root, "run_id", row.ID)
	rec.AnnotateStr(reqtrace.Root, "benchmark", req.Benchmark)
	s.append(r.Context(), row)

	// One deadline covers queueing and the simulation.
	ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout(r))
	defer cancel()

	sp := rec.Start(reqtrace.Root, "queue.wait")
	verdict := s.adm.acquire(ctx, req.Benchmark)
	rec.AnnotateStr(sp, "verdict", verdict.String())
	if verdict != admitted {
		rec.AnnotateBool(sp, "rejected", true)
	}
	rec.End(sp)
	switch verdict {
	case admitted:
	case admitQueueFull, admitDraining:
		s.reg.Counter(metricSheds, "POST /run requests shed by admission control, by benchmark and reason",
			metrics.L("benchmark", req.Benchmark), metrics.L("reason", verdict.String())).Inc()
		row.Status = ledger.StatusRejected
		row.HTTPStatus = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
		row.Error = fmt.Sprintf("at capacity (%d runs in flight, %s)", cap(s.adm.slots), verdict)
		s.finishRun(w, rec, row, nil, row.Error)
		return
	case admitTimeout:
		row.Status = ledger.StatusTimeout
		row.HTTPStatus = http.StatusGatewayTimeout
		row.Error = "deadline expired while queued"
		s.finishRun(w, rec, row, nil, row.Error)
		return
	case admitCanceled:
		row.Status = ledger.StatusCanceled
		row.HTTPStatus = http.StatusServiceUnavailable
		row.Error = "client went away while queued"
		s.finishRun(w, rec, row, nil, row.Error)
		return
	}
	defer s.adm.release()
	s.runWG.Add(1)
	defer s.runWG.Done()
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)

	row.Status = ledger.StatusRunning
	s.inflight.Store(row.ID, row)
	defer s.inflight.Delete(row.ID)
	s.append(ctx, row)

	start := time.Now()
	st, err := s.runGuarded(ctx, req.Benchmark)
	row.WallSeconds = time.Since(start).Seconds()
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			row.Status = ledger.StatusTimeout
			row.HTTPStatus = http.StatusGatewayTimeout
		case errors.Is(err, context.Canceled):
			// The client went away mid-run; 499-style, but stay standard.
			row.Status = ledger.StatusCanceled
			row.HTTPStatus = http.StatusServiceUnavailable
		default:
			row.Status = ledger.StatusFailed
			row.HTTPStatus = http.StatusInternalServerError
		}
		row.Error = err.Error()
		s.finishRun(w, rec, row, nil, err.Error())
		return
	}
	row.Status = ledger.StatusOK
	row.HTTPStatus = http.StatusOK
	row.Cycles = st.Cycles
	row.Instructions = st.Instructions
	row.StatsDigest = statsDigest(&st)
	s.finishRun(w, rec, row, &st.Stalls, "")
}

// statsDigest renders the cross-restart outcome digest of one run: the
// cycle and instruction totals plus the CPI stack, in cause order.
func statsDigest(st *sim.Stats) string {
	stalls := make([]int64, 0, len(trace.Causes()))
	for _, c := range trace.Causes() {
		stalls = append(stalls, st.Stalls[c])
	}
	return ledger.StatsDigest(st.Cycles, st.Instructions, stalls)
}

// finishRun is the single exit of the /run attempt path: it writes the
// response inside an "encode.json" span, appends the terminal ledger
// row (a "wal.append" span when durable), and files the finished span
// bundle in the flight recorder under the run's id so GET /runs/{id}
// can replay the request.
func (s *server) finishRun(w http.ResponseWriter, rec *reqtrace.Recorder, row runRecord, stalls *trace.Breakdown, errMsg string) {
	rec.AnnotateStr(reqtrace.Root, "status", row.Status)
	sp := rec.Start(reqtrace.Root, "encode.json")
	if errMsg != "" {
		writeJSONError(w, row.HTTPStatus, errMsg)
	} else {
		writeJSON(w, row.HTTPStatus, row)
	}
	rec.End(sp)
	s.append(reqtrace.With(context.Background(), rec), row)
	s.reg.Counter(metricRunsTotal, "runs recorded in the ledger, by status",
		metrics.L("status", row.Status)).Inc()
	bundle := rec.Finish()
	d := &runDebug{runRecord: row, Stalls: stalls, Trace: bundle}
	if b, ok := bundle.IntAttr("snapshot.restore", "bytes"); ok {
		d.RestoreBytes = b
	}
	if c, ok := bundle.StrAttr("decode.lookup", "cache"); ok {
		d.DecodeCache = c
	}
	s.flight.Put(strconv.FormatInt(row.ID, 10), d)
}

func (s *server) handleRuns(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Runs []runRecord `json:"runs"`
	}{Runs: s.ledger.List()})
}

// handleRunByID serves the flight-recorder debug bundle of one run:
// ledger row, CPI-stack stall breakdown, restore/decode activity, and
// the full span timeline.
func (s *server) handleRunByID(w http.ResponseWriter, r *http.Request) {
	d, ok := s.flight.Get(r.PathValue("id"))
	if !ok {
		writeJSONError(w, http.StatusNotFound,
			fmt.Sprintf("no run %q in the flight recorder", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, d)
}

// handleRunTrace exports one run's span timeline as Chrome Trace Event
// JSON — the same format camsim -trace emits for simulated pipelines —
// loadable in ui.perfetto.dev or chrome://tracing.
func (s *server) handleRunTrace(w http.ResponseWriter, r *http.Request) {
	d, ok := s.flight.Get(r.PathValue("id"))
	if !ok {
		writeJSONError(w, http.StatusNotFound,
			fmt.Sprintf("no run %q in the flight recorder", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if err := d.Trace.WriteChrome(w); err != nil {
		s.logger.Error("trace write", "err", err)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeJSONError(w http.ResponseWriter, status int, msg string) {
	// The suite's errors already carry a "bench: " prefix; strip it so
	// clients see the fact, not the package.
	writeJSON(w, status, struct {
		Error string `json:"error"`
	}{Error: strings.TrimPrefix(msg, "bench: ")})
}

// runDebug is the GET /runs/{id} body: the ledger row joined with the
// run's simulator stall attribution and its wall-clock span timeline.
type runDebug struct {
	runRecord
	// Stalls is the attributed CPI stack of the simulated run (absent on
	// rejected/failed requests): where the simulated cycles went, while
	// Trace says where the host wall time went.
	Stalls *trace.Breakdown `json:"stall_breakdown,omitempty"`
	// RestoreBytes is the dirty-page volume the warm-start restore
	// copied for this run (0 when the run built a machine cold).
	RestoreBytes int64 `json:"restore_bytes"`
	// DecodeCache is the decode-cache outcome ("hit"/"miss") when this
	// request performed the lookup; steady-state warm runs load the
	// pre-decoded program via the snapshot and never look up.
	DecodeCache string `json:"decode_cache,omitempty"`
	// Trace is the span timeline (reqtrace bundle) of the request.
	Trace *reqtrace.Bundle `json:"trace"`
}
