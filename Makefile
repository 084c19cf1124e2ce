# Build/verify entry points for the Cambricon reproduction. `make ci` is
# the gate every PR must pass: formatting, vet, build, the full test suite
# under the race detector (covering the parallel benchmark harness), vet
# and unit tests of the separate perfbench module, a short run of the
# hot-kernel microbenchmarks (docs/PERF.md), a traced smoke run of the
# observability layer (docs/OBSERVABILITY.md), a fault-campaign smoke run
# of the robustness layer (docs/ROBUSTNESS.md), an end-to-end camserve
# smoke run (start the daemon, drive one /run, scrape /metrics;
# camserve's request tracing is covered by the Go tests in cmd/camserve,
# which `race` runs), a kill-and-restart crash-recovery smoke run over
# the durable run ledger (docs/ROBUSTNESS.md, "Serving-layer
# robustness"), and the host-benchmark regression gate against
# BENCH_host.json. The checkpoint/resume round trip across processes is
# a Go test in cmd/camsim, which `race` runs.

GO ?= go

.PHONY: ci fmt vet build test race perfbench-test bench bench-host bench-json repro smoke smoke-fault smoke-host smoke-serve smoke-crash check-host fault-json

ci: fmt vet build race perfbench-test bench smoke smoke-fault smoke-host smoke-serve smoke-crash check-host

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# perfbench is a module of its own (perfbench/go.mod), so the root vet
# and test skip it. Vet it and run its unit tests; this does not run the
# benchmark.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Short-benchtime kernel microbenchmarks: enough iterations to catch an
# allocation or order-of-magnitude regression without taking minutes.
# They cover the simulator's instruction kernels, the scratchpad views,
# and the fixed-point and float64 matrix-vector kernels under them.
bench:
	$(GO) test -run '^$$' -bench 'Kernel|AccessCycles|NumsView|ReadNumsInto' -benchmem -benchtime 50x ./internal/sim ./internal/mem ./internal/fixed ./internal/nn
	$(GO) test -run '^$$' -bench 'SuiteSerial|SuiteParallel' -benchmem -benchtime 2x ./internal/bench

# Traced smoke run: one benchmark with the Chrome timeline and the
# stall-attribution profile attached, proving the observability layer
# end to end (the trace file is checked non-empty, then discarded).
smoke:
	$(GO) run ./cmd/camsim -benchmark MLP -trace /tmp/cambricon-smoke-trace.json -profile >/dev/null
	@test -s /tmp/cambricon-smoke-trace.json || { echo "smoke: empty trace file"; exit 1; }
	@rm -f /tmp/cambricon-smoke-trace.json

# Fault-campaign smoke run: a small deterministic injection sweep over
# one benchmark, proving the fault subsystem end to end (the report is
# checked for the schema marker, then discarded).
smoke-fault:
	$(GO) run ./cmd/camrepro -fault-json /tmp/cambricon-smoke-faults.json -fault-bench MLP -fault-sites 10 2>/dev/null
	@grep -q cambricon-fault/v1 /tmp/cambricon-smoke-faults.json || { echo "smoke-fault: bad report"; exit 1; }
	@rm -f /tmp/cambricon-smoke-faults.json

# Warm-start smoke run: one iteration of each host benchmark (campaign
# throughput, warm restart) proving the warm-start layer end to end
# without taking the minutes a real measurement needs.
smoke-host:
	$(GO) test -run '^$$' -bench 'CampaignThroughput|WarmRestart' -benchtime 1x ./internal/bench

# Service smoke run: start camserve, wait for readiness, drive one
# simulation through POST /run, and assert the run shows up in the
# Prometheus scrape — the observability daemon proven end to end.
smoke-serve:
	@$(GO) build -o /tmp/cambricon-smoke-camserve ./cmd/camserve
	@/tmp/cambricon-smoke-camserve -addr 127.0.0.1:18931 >/dev/null 2>&1 & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	for i in $$(seq 1 50); do \
		curl -fsS http://127.0.0.1:18931/readyz >/dev/null 2>&1 && break; \
		sleep 0.2; \
	done; \
	curl -fsS http://127.0.0.1:18931/healthz >/dev/null || { echo "smoke-serve: healthz failed"; exit 1; }; \
	curl -fsS -X POST -d '{"benchmark":"MLP"}' http://127.0.0.1:18931/run > /tmp/cambricon-smoke-run.json || { echo "smoke-serve: /run failed"; exit 1; }; \
	grep -q '"status": "ok"' /tmp/cambricon-smoke-run.json || { echo "smoke-serve: /run failed"; cat /tmp/cambricon-smoke-run.json; exit 1; }; \
	curl -fsS http://127.0.0.1:18931/metrics > /tmp/cambricon-smoke-metrics.txt || { echo "smoke-serve: /metrics failed"; exit 1; }; \
	grep -q '^cambricon_bench_runs_completed_total 1$$' /tmp/cambricon-smoke-metrics.txt || { echo "smoke-serve: run not visible in /metrics"; exit 1; }; \
	rm -f /tmp/cambricon-smoke-run.json /tmp/cambricon-smoke-metrics.txt; \
	echo "smoke-serve: ok"
	@rm -f /tmp/cambricon-smoke-camserve

# Crash-recovery smoke run: the kill-and-restart criterion against a
# real process (docs/ROBUSTNESS.md, "Serving-layer robustness"). Start
# camserve with a durable WAL and a chaos spec that stalls every
# simulation, SIGKILL it while a run is in flight (its accepted/running
# events are already durable), restart over the same WAL, and assert
# GET /runs serves the recovered history with the in-flight run
# surfaced as interrupted — then prove the restarted daemon still runs.
# The ledger package is also re-checked under the race detector.
smoke-crash:
	$(GO) test -race -count=1 ./internal/ledger
	@$(GO) build -o /tmp/cambricon-smoke-crash-srv ./cmd/camserve
	@rm -rf /tmp/cambricon-smoke-crash-wal; \
	/tmp/cambricon-smoke-crash-srv -addr 127.0.0.1:18933 -wal /tmp/cambricon-smoke-crash-wal -chaos 'run-delay=30s:1' >/dev/null 2>&1 & \
	pid=$$!; \
	trap 'kill -9 $$pid 2>/dev/null' EXIT; \
	for i in $$(seq 1 50); do \
		curl -fsS http://127.0.0.1:18933/readyz >/dev/null 2>&1 && break; \
		sleep 0.2; \
	done; \
	curl -fsS -X POST -d '{"benchmark":"MLP"}' http://127.0.0.1:18933/run >/dev/null 2>&1 & \
	sleep 2; \
	kill -9 $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	/tmp/cambricon-smoke-crash-srv -addr 127.0.0.1:18934 -wal /tmp/cambricon-smoke-crash-wal >/dev/null 2>&1 & \
	pid=$$!; \
	for i in $$(seq 1 50); do \
		curl -fsS http://127.0.0.1:18934/readyz >/dev/null 2>&1 && break; \
		sleep 0.2; \
	done; \
	curl -fsS http://127.0.0.1:18934/runs > /tmp/cambricon-smoke-crash-runs.json || { echo "smoke-crash: /runs failed after restart"; exit 1; }; \
	grep -q '"status": "interrupted"' /tmp/cambricon-smoke-crash-runs.json || { \
		echo "smoke-crash: no interrupted row after kill-and-restart"; cat /tmp/cambricon-smoke-crash-runs.json; exit 1; }; \
	grep -q '"recovered": true' /tmp/cambricon-smoke-crash-runs.json || { \
		echo "smoke-crash: recovered rows not marked"; cat /tmp/cambricon-smoke-crash-runs.json; exit 1; }; \
	curl -fsS -X POST -d '{"benchmark":"MLP"}' http://127.0.0.1:18934/run > /tmp/cambricon-smoke-crash-run2.json || { \
		echo "smoke-crash: /run failed after restart"; exit 1; }; \
	grep -q '"status": "ok"' /tmp/cambricon-smoke-crash-run2.json || { \
		echo "smoke-crash: post-restart run failed"; cat /tmp/cambricon-smoke-crash-run2.json; exit 1; }; \
	kill $$pid 2>/dev/null; \
	rm -rf /tmp/cambricon-smoke-crash-wal /tmp/cambricon-smoke-crash-runs.json /tmp/cambricon-smoke-crash-run2.json; \
	echo "smoke-crash: ok"
	@rm -f /tmp/cambricon-smoke-crash-srv

# Host-benchmark regression gate: re-measure the warm-start layer and
# fail if the host-portable signals (cold/warm ratios, warm-row
# allocation counts) regressed against the committed BENCH_host.json.
check-host:
	$(GO) run ./cmd/camrepro -check-host BENCH_host.json -check-runs 3

# Regenerate the machine-readable perf record tracked in BENCH_sim.json.
bench-json:
	$(GO) run ./cmd/camrepro -bench-json BENCH_sim.json

# Regenerate the warm-vs-cold host-throughput record tracked in
# BENCH_host.json (docs/PERF.md, Level 3).
bench-host:
	$(GO) run ./cmd/camrepro -host-json BENCH_host.json

# Run a full fault-injection campaign across all ten benchmarks.
fault-json:
	$(GO) run ./cmd/camrepro -fault-json FAULTS_sim.json

# Regenerate every paper table/figure using all cores.
repro:
	$(GO) run ./cmd/camrepro
