# Build/verify entry points for the Cambricon reproduction. `make ci` is
# the gate every PR must pass: formatting, vet, build, the full test suite
# under the race detector, vet and unit tests of the separate perfbench
# module, the tests of internal/fixed's portable kernels and the two
# golden records run on them, a short run of
# the hot-kernel microbenchmarks (docs/PERF.md),
# and the host-benchmark regression gate against BENCH_host.json. The
# race run includes the tests that start the real camsim, camrepro and
# camserve as child processes: a traced and profiled benchmark run, the
# testdata/*.cam programs run as their headers say, a one-benchmark
# fault campaign, and a camserve killed mid-run with SIGKILL and
# restarted over its WAL.

GO ?= go

.PHONY: ci fmt vet build test race perfbench-test portable bench bench-host repro check-host fault-json

ci: fmt vet build race perfbench-test portable bench check-host

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

# internal/fixed computes MMV, VMM, VDOT and the element-wise vector and
# matrix instructions in AVX2 assembly on amd64 hosts that support it
# (the race run above tests it against the Go loops), and in plain Go
# everywhere else. Run the Go form's tests as a 386 binary, which an
# amd64 host can execute, then the Table III record and the seed-7
# campaign record on the Go form, and vet the package for arm64.
portable:
	GOARCH=386 $(GO) test ./internal/fixed
	GOARCH=386 $(GO) test -run '^(TestBenchmarkAllGolden|TestCampaignSeed7Golden)$$' ./cmd/camsim ./internal/bench
	GOARCH=arm64 $(GO) vet ./internal/fixed

# Short-benchtime kernel microbenchmarks: enough iterations to catch an
# allocation or order-of-magnitude regression without taking minutes.
# They cover the simulator's instruction kernels, the scratchpad views,
# and the fixed-point and float64 matrix-vector kernels under them, the
# suite, stuck-lane fault sites replayed and fast-forwarded, and the
# root package's served runs of single benchmarks.
bench:
	$(GO) test -run '^$$' -bench 'Kernel|AccessCycles|NumsView' -benchmem -benchtime 50x ./internal/sim ./internal/mem ./internal/fixed ./internal/nn
	$(GO) test -run '^$$' -bench 'SuiteSerial|SuiteParallel|StuckLaneSites' -benchmem -benchtime 2x ./internal/bench
	$(GO) test -run '^$$' -bench 'Simulate' -benchmem -benchtime 2x .

# Host-benchmark regression gate: re-measure the warm-start layer and
# fail if the host-portable signals (cold/warm ratios, warm-row
# allocation counts) regressed against the committed BENCH_host.json.
check-host:
	$(GO) run ./cmd/camrepro -check-host BENCH_host.json

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
