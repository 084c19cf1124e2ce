// Command camrepro regenerates the paper's evaluation: every table and
// figure of Section V (plus the Section VI extension), each rendered with
// the published value alongside the measured one.
//
// Usage:
//
//	camrepro                   # run every experiment, plain-text tables
//	camrepro -exp fig12        # one experiment
//	camrepro -md               # markdown output (EXPERIMENTS.md body)
//	camrepro -seed 7           # benchmark generation seed
//	camrepro -j 8              # benchmark simulation worker count (0 = all cores)
//	camrepro -host-json BENCH_host.json  # warm-vs-cold host throughput record
//	camrepro -check-host BENCH_host.json # re-measure and gate against the committed record
//	camrepro -profile-json PROFILES.json # per-benchmark stall-attribution profiles
//	camrepro -fault-json FAULTS.json     # fault-injection campaign record
//	camrepro -listing x86:MLP  # dump a baseline pseudo-assembly listing
//	camrepro -source BM        # dump a generated Cambricon program
//
// The fault campaign (see docs/ROBUSTNESS.md) sweeps deterministic
// injected faults across the Table III benchmarks and classifies each
// run against the fault-free golden run:
//
//	camrepro -fault-json FAULTS.json -fault-sites 50   # sites per benchmark
//	camrepro -fault-json - -fault-bench MLP            # one benchmark, stdout
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"cambricon"
	"cambricon/internal/baseline/genarch"
	"cambricon/internal/bench"
	"cambricon/internal/codegen"
	"cambricon/internal/fault"
	"cambricon/internal/trace"
	"cambricon/internal/workload"
)

func main() {
	exp := flag.String("exp", "", "experiment id (tab1..tab4, fig10..fig13, flex, logreg, ablate); empty = all")
	seed := flag.Uint64("seed", 7, "benchmark generation seed")
	md := flag.Bool("md", false, "render markdown instead of plain text")
	workers := flag.Int("j", 0, "benchmark simulation workers (0 = GOMAXPROCS, 1 = serial)")
	profileJSON := flag.String("profile-json", "", "write per-benchmark stall-attribution profiles as JSON to this file")
	faultJSON := flag.String("fault-json", "", "run a fault-injection campaign and write the report to this file (\"-\" = stdout)")
	faultSites := flag.Int("fault-sites", 50, "fault sites injected per benchmark in the campaign")
	faultBench := flag.String("fault-bench", "", "restrict the fault campaign to one benchmark (empty = all)")
	hostJSON := flag.String("host-json", "", "run the host-throughput benchmarks and write the record to this file (e.g. BENCH_host.json, - for stdout)")
	checkHost := flag.String("check-host", "", "re-run the host benchmarks and exit nonzero if they regressed against this baseline record")
	listing := flag.String("listing", "", "dump a baseline listing, e.g. x86:MLP (arches: x86, MIPS, GPU)")
	source := flag.String("source", "", "dump the generated Cambricon assembly of a benchmark")
	version := flag.Bool("version", false, "print the simulator version and exit")
	flag.Parse()

	if *version {
		fmt.Printf("camrepro %s (cambricon-bench-sim)\n", cambricon.Version)
		return
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "camrepro: unexpected arguments %q (all inputs are flags)\n", flag.Args())
		os.Exit(2)
	}

	if *listing != "" {
		dumpListing(*listing)
		return
	}
	if *source != "" {
		p, err := codegen.ByName(*source, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "camrepro:", err)
			os.Exit(1)
		}
		fmt.Print(p.Source)
		return
	}

	suite := bench.NewSuite(*seed)

	if *hostJSON != "" {
		if err := emitHostJSON(*seed, *hostJSON); err != nil {
			fmt.Fprintln(os.Stderr, "camrepro:", err)
			os.Exit(1)
		}
		return
	}

	if *checkHost != "" {
		regressions, err := runHostCheck(*checkHost, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "camrepro:", err)
			os.Exit(1)
		}
		if len(regressions) > 0 {
			fmt.Fprintf(os.Stderr, "camrepro: host benchmarks regressed against %s:\n", *checkHost)
			for _, r := range regressions {
				fmt.Fprintln(os.Stderr, "  -", r)
			}
			os.Exit(1)
		}
		fmt.Printf("host benchmarks within tolerance of %s\n", *checkHost)
		return
	}

	if *profileJSON != "" {
		if err := emitProfileJSON(suite, *profileJSON); err != nil {
			fmt.Fprintln(os.Stderr, "camrepro:", err)
			os.Exit(1)
		}
		return
	}

	if *faultJSON != "" {
		if err := emitFaultJSON(suite, *workers, *faultSites, *faultBench, *faultJSON); err != nil {
			fmt.Fprintln(os.Stderr, "camrepro:", err)
			os.Exit(1)
		}
		return
	}

	// Pre-warm the suite caches across all cores: every experiment below
	// then reads simulation results without re-running anything. -j 1
	// reproduces the historical strictly-serial behaviour.
	if *workers != 1 {
		if _, err := suite.RunAll(context.Background(), *workers); err != nil {
			fmt.Fprintln(os.Stderr, "camrepro:", err)
			os.Exit(1)
		}
	}

	var experiments []bench.Experiment
	if *exp == "" {
		experiments = bench.Experiments()
	} else {
		e, ok := bench.ExperimentByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "camrepro: unknown experiment %q\navailable:", *exp)
			for _, e := range bench.Experiments() {
				fmt.Fprintf(os.Stderr, " %s", e.ID)
			}
			fmt.Fprintln(os.Stderr)
			os.Exit(2)
		}
		experiments = []bench.Experiment{e}
	}

	for _, e := range experiments {
		tbl, err := e.Run(suite)
		if err != nil {
			fmt.Fprintf(os.Stderr, "camrepro: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		if *md {
			fmt.Println(tbl.Markdown())
		} else {
			fmt.Println(tbl.Render())
		}
	}
}

// Timed iterations per host-benchmark row. -check-host takes fewer
// than -host-json records: the gate compares ratios, not raw times.
const (
	hostRuns  = 10
	checkRuns = 3
)

// emitHostJSON measures host-side throughput of the warm-start layer —
// campaign runs and machine acquisition, warm vs cold — and writes the
// cambricon-bench-host/v1 record (see docs/PERF.md, Level 3).
func emitHostJSON(seed uint64, path string) error {
	rep, err := bench.RunHostBenchmarks(seed, hostRuns, 32)
	if err != nil {
		return err
	}
	if path == "-" {
		return rep.Write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runHostCheck is the perf-regression gate (`make check-host`): it
// re-measures the host benchmarks with the baseline's seed and at the
// baseline's GOMAXPROCS (the host's when the record has none) and
// compares the host-portable signals (cold/warm ratios, warm-row
// allocation counts) against the committed record within
// bench.DefaultHostTolerance.
func runHostCheck(path string, seed uint64) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var baseline bench.HostReport
	if err := json.NewDecoder(f).Decode(&baseline); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if baseline.Seed != 0 {
		// Measure what the baseline measured, whatever -seed says.
		seed = baseline.Seed
	}
	if baseline.GOMAXPROCS > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(baseline.GOMAXPROCS))
	}
	fresh, err := bench.RunHostBenchmarks(seed, checkRuns, 32)
	if err != nil {
		return nil, err
	}
	return bench.CheckHost(&baseline, fresh, bench.DefaultHostTolerance), nil
}

// emitProfileJSON re-runs every Table III benchmark with a
// stall-attribution profile attached (bench.Suite.Profile) and writes
// the collected reports as one JSON document.
func emitProfileJSON(suite *bench.Suite, path string) error {
	doc := struct {
		Schema   string          `json:"schema"`
		Seed     uint64          `json:"seed"`
		Profiles []*trace.Report `json:"profiles"`
	}{Schema: "cambricon-profile/v1", Seed: suite.Seed}
	for _, name := range workload.Names() {
		rep, err := suite.Profile(name)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		doc.Profiles = append(doc.Profiles, rep)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// faultCheckpoints is the number of interval checkpoints per benchmark
// the fault campaign fast-forwards from (docs/PERF.md, Level 5).
const faultCheckpoints = 8

// emitFaultJSON runs a deterministic fault-injection campaign over the
// Table III benchmarks (or one of them) and writes the
// cambricon-fault/v1 report. The campaign seed is the suite seed, so
// `-seed N -fault-sites K` fully determines the report bytes —
// checkpoints only change how fast the sites are swept (docs/PERF.md,
// Level 5), never what the report says.
func emitFaultJSON(suite *bench.Suite, workers, sites int, only, path string) error {
	targets, err := suite.FaultTargets()
	if err != nil {
		return err
	}
	if only != "" {
		kept := targets[:0]
		for _, t := range targets {
			if t.Name() == only {
				kept = append(kept, t)
			}
		}
		if len(kept) == 0 {
			return fmt.Errorf("unknown benchmark %q for -fault-bench", only)
		}
		targets = kept
	}
	c := fault.Campaign{Seed: suite.Seed, Sites: sites, Workers: workers, Checkpoints: faultCheckpoints}
	rep, err := c.Run(context.Background(), targets)
	if err != nil {
		return err
	}
	fmt.Fprint(os.Stderr, rep.Render())
	if path == "-" {
		return rep.Write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// dumpListing prints one baseline architecture's pseudo-assembly for a
// benchmark, the raw material of the Fig. 10 comparison.
func dumpListing(spec string) {
	parts := strings.SplitN(spec, ":", 2)
	if len(parts) != 2 {
		fmt.Fprintln(os.Stderr, "camrepro: -listing wants ARCH:BENCHMARK (e.g. x86:MLP)")
		os.Exit(2)
	}
	var arch genarch.Arch
	switch strings.ToLower(parts[0]) {
	case "x86":
		arch = genarch.X86()
	case "mips":
		arch = genarch.MIPS()
	case "gpu":
		arch = genarch.GPU()
	default:
		fmt.Fprintf(os.Stderr, "camrepro: unknown architecture %q (x86, MIPS, GPU)\n", parts[0])
		os.Exit(2)
	}
	b, ok := workload.ByName(parts[1])
	if !ok {
		fmt.Fprintf(os.Stderr, "camrepro: unknown benchmark %q\n", parts[1])
		os.Exit(2)
	}
	for _, line := range arch.Listing(&b) {
		fmt.Println(line)
	}
}
