package main

// The observability loop (docs/OBSERVABILITY.md, "Metrics history and
// SLOs"): with -sample-interval set, camserve samples its own metrics
// registry into an in-process tsdb ring on every tick and evaluates the
// -slo burn-rate rules against that history. The history feeds two
// endpoints — GET /vars (JSON) and GET /alerts (rule states) — and two
// closed loops: /readyz degrades to 503 while any fast-burn rule fires,
// and shed Retry-After hints stretch to the recent queue-wait p90
// instead of blind jitter.

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"time"

	"cambricon/internal/metrics"
	"cambricon/internal/tsdb"
)

// Metric names owned by the observability loop.
const (
	metricInflightRuns = "cambricon_serve_inflight_runs"
)

// retryHintWindow is how far back the pressure-aware Retry-After looks
// for a queue-wait p90.
const retryHintWindow = 2 * time.Minute

// retryAfterMax caps the pressure-derived hint; the jittered fallback
// stays at 1..4 seconds.
const retryAfterMax = 30

// defaultVarsWindow bounds /vars queries when the request names no
// ?window.
const defaultVarsWindow = 10 * time.Minute

// observe is the sampling loop: one registry sample (plus a runtime
// collection, so Go memory gauges have history too) per -sample-interval,
// until ctx ends. Run as a goroutine; tests call observeTick directly
// under an injected clock instead.
func (s *server) observe(ctx context.Context) {
	t := time.NewTicker(s.cfg.sampleInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.observeTick()
		}
	}
}

// observeTick performs one sampling pass.
func (s *server) observeTick() {
	s.runtime.Collect()
	s.tsdb.Sample()
}

// alerts evaluates the installed SLO rules against the sampled history
// (nil when sampling or rules are disabled).
func (s *server) alerts() []tsdb.Alert {
	if s.tsdb == nil || len(s.sloRules) == 0 {
		return nil
	}
	return tsdb.Eval(s.tsdb, s.sloRules)
}

// pressureRetryAfter derives a Retry-After hint from the recent
// queue-wait p90: a shed during real congestion tells clients to stay
// away for about as long as the queue is actually taking, clamped to
// [1s, 30s]. ok is false when the sampler is off or has no queue-wait
// observations yet — callers fall back to the jittered 1..4s hint.
func (s *server) pressureRetryAfter() (int, bool) {
	p90, ok := s.tsdb.Quantile(metricQueueWait, 0.9, retryHintWindow)
	if !ok {
		return 0, false
	}
	hint := int(math.Ceil(p90))
	if hint < 1 {
		hint = 1
	}
	if hint > retryAfterMax {
		hint = retryAfterMax
	}
	return hint, true
}

// queryWindow resolves the ?window= parameter (Go duration syntax) with
// a default and a cap at the store's retention.
func (s *server) queryWindow(r *http.Request) (time.Duration, error) {
	raw := r.URL.Query().Get("window")
	if raw == "" {
		return defaultVarsWindow, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("bad window %q (want a positive Go duration like 30s or 5m)", raw)
	}
	return d, nil
}

// handleVars serves the sampled metrics history as JSON.
func (s *server) handleVars(w http.ResponseWriter, r *http.Request) {
	if s.tsdb == nil {
		writeJSONError(w, http.StatusNotFound, "metrics history disabled (start camserve with -sample-interval)")
		return
	}
	window, err := s.queryWindow(r)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if err := s.tsdb.WriteVars(w, window); err != nil {
		s.logger.Error("vars write", "err", err)
	}
}

// handleAlerts serves the SLO rule evaluations.
func (s *server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	if s.tsdb == nil {
		writeJSONError(w, http.StatusNotFound, "slo alerts disabled (start camserve with -sample-interval)")
		return
	}
	alerts := s.alerts()
	if alerts == nil {
		alerts = []tsdb.Alert{}
	}
	writeJSON(w, http.StatusOK, struct {
		Alerts      []tsdb.Alert `json:"alerts"`
		FastBurning []string     `json:"fast_burning,omitempty"`
	}{Alerts: alerts, FastBurning: tsdb.FastBurning(alerts)})
}

// setupObservability wires the tsdb sampler and SLO rules from the
// server config; a zero sample interval disables both (and rejects -slo,
// which would silently do nothing).
func (s *server) setupObservability(reg *metrics.Registry) error {
	cfg := s.cfg
	if s.clock == nil {
		s.clock = time.Now
	}
	if cfg.sampleInterval <= 0 {
		if cfg.sloSpec != "" && cfg.sloSpec != "none" {
			return fmt.Errorf("-slo requires -sample-interval")
		}
		return nil
	}
	s.tsdb = tsdb.New(reg, tsdb.Options{
		Interval: cfg.sampleInterval,
		Now:      s.clock,
		Metrics:  reg,
	})
	if cfg.sloSpec == "" {
		s.sloRules = tsdb.DefaultRules()
	} else {
		rules, err := tsdb.ParseRules(cfg.sloSpec)
		if err != nil {
			return err
		}
		s.sloRules = rules
	}
	return nil
}

// readyzDegraded reports the fast-burning rule names (empty when healthy
// or when the SLO engine is off) for /readyz to surface as a 503: a
// service burning error budget at page speed should fall out of its
// load balancer before it pages anyone.
func (s *server) readyzDegraded() []string {
	return tsdb.FastBurning(s.alerts())
}
