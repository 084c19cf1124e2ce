// Command camsim runs Cambricon programs on the cycle-approximate
// Cambricon-ACC simulator.
//
// Run an assembly file (optionally seeding registers and memory, and
// dumping memory regions afterwards):
//
//	camsim [-gpr n=v ...] [-poke addr=v0,v1,... ] [-dump addr:count ...] prog.cam
//
// Or run one of the built-in Table III benchmarks (generated, executed and
// verified against its float reference):
//
//	camsim -benchmark MLP [-seed 7] [-v]
//
// Or run all ten benchmarks across a worker pool (per-benchmark summaries
// print in table order regardless of scheduling):
//
//	camsim -benchmark all [-j 8]
//
// Observability (single runs only, any combination; see
// docs/OBSERVABILITY.md):
//
//	camsim -benchmark MLP -trace mlp.json    # Chrome Trace Event timeline
//	camsim -benchmark MLP -profile           # stall-attribution profile
//	camsim -benchmark MLP -profile-json p.json
//	camsim -itrace prog.cam                  # textual per-instruction trace
//
// Robustness (see docs/ROBUSTNESS.md):
//
//	camsim -max-cycles 100000 prog.cam       # watchdog: fail instead of hang
//	camsim -bin prog.bin                     # run a binary instruction image;
//	                                         # a corrupted image is a clean error
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"cambricon"
	"cambricon/internal/asm"
	"cambricon/internal/bench"
	"cambricon/internal/codegen"
	"cambricon/internal/core"
	"cambricon/internal/fixed"
	"cambricon/internal/sim"
	"cambricon/internal/trace"
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

func main() {
	var gprs, pokes, dumps multiFlag
	benchmark := flag.String("benchmark", "", "run a built-in benchmark (MLP, CNN, ..., Logistic), or \"all\"")
	workers := flag.Int("j", 0, "workers for -benchmark all (0 = GOMAXPROCS)")
	seed := flag.Uint64("seed", 7, "benchmark generation seed")
	verbose := flag.Bool("v", false, "print the generated assembly before running")
	itrace := flag.Bool("itrace", false, "print a textual per-instruction execution trace")
	traceOut := flag.String("trace", "", "write a Chrome Trace Event / Perfetto timeline to this file (open at ui.perfetto.dev)")
	profileFlag := flag.Bool("profile", false, "print the stall-attribution profile after the run")
	profileJSON := flag.String("profile-json", "", "write the stall-attribution profile as JSON to this file")
	topN := flag.Int("top", 10, "opcode rows in the profile (0 = all)")
	hist := flag.Bool("hist", false, "print the dynamic opcode histogram")
	jsonOut := flag.Bool("json", false, "print run statistics as JSON")
	maxCycles := flag.Int64("max-cycles", 0, "watchdog: fail the run once the simulated clock passes this budget (0 = off)")
	dumpDecoded := flag.Bool("dump-decoded", false, "print the pre-decoded listing (encoded words, operand registers) instead of running")
	binFlag := flag.Bool("bin", false, "treat the program argument as a binary instruction image (8 bytes per instruction, little-endian), not assembly text")
	version := flag.Bool("version", false, "print the simulator version and exit")
	flag.Var(&gprs, "gpr", "initialize a register, e.g. -gpr 1=64 (repeatable)")
	flag.Var(&pokes, "poke", "write fixed-point values to main memory, e.g. -poke 100=1.5,2.25 (repeatable)")
	flag.Var(&dumps, "dump", "print a main-memory region after the run, e.g. -dump 200:8 (repeatable)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: camsim [flags] prog.cam\n       camsim -benchmark NAME [flags]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *version {
		fmt.Printf("camsim %s (cambricon-bench-sim)\n", cambricon.Version)
		fmt.Printf("kernels: %s\n", fixed.KernelForm())
		return
	}

	cfg := sim.DefaultConfig()
	cfg.MaxCycles = *maxCycles
	m, err := sim.New(cfg)
	if err != nil {
		fatal(err)
	}

	if *benchmark != "" {
		if flag.NArg() > 0 {
			fmt.Fprintf(os.Stderr, "camsim: unexpected arguments %q with -benchmark\n", flag.Args())
			os.Exit(2)
		}
		if len(gprs)+len(pokes)+len(dumps) > 0 {
			fmt.Fprintln(os.Stderr, "camsim: -gpr/-poke/-dump are ignored with -benchmark (the benchmark carries its own image)")
		}
		if *benchmark == "all" {
			// These flags observe or bound one run; the suite runs ten.
			flag.Visit(func(f *flag.Flag) {
				switch f.Name {
				case "trace", "profile", "profile-json", "dump-decoded", "itrace", "max-cycles", "hist", "v":
					fmt.Fprintf(os.Stderr, "camsim: -%s needs a single run; use -benchmark NAME\n", f.Name)
					os.Exit(2)
				}
			})
			runAll(*seed, *workers, *jsonOut)
			return
		}
		p, err := codegen.ByName(*benchmark, *seed)
		if err != nil {
			fatal(err)
		}
		if *dumpDecoded {
			dumpDecodedProgram(p.Asm.Instructions)
			return
		}
		obs := newObserver(m, *itrace, *traceOut, *profileFlag, *profileJSON, *benchmark)
		if *verbose {
			fmt.Print(p.Source)
		}
		stats, err := p.Execute(m)
		obs.finish(err, *topN)
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			printJSON(&stats)
			return
		}
		fmt.Printf("%s: verified against reference model\n", p.Name)
		fmt.Printf("static code length: %d instructions\n", p.Len())
		fmt.Printf("%v\n", &stats)
		fmt.Printf("time at 1 GHz: %.2f us\n", stats.Seconds(1e9)*1e6)
		if *hist {
			printHistogram(&stats)
		}
		return
	}

	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	var insts []core.Instruction
	if *binFlag {
		// A binary image carries no .data section; -poke seeds memory.
		insts, err = core.DecodeProgram(src)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", flag.Arg(0), err))
		}
	} else {
		prog, err := asm.Assemble(string(src))
		if err != nil {
			fatal(err)
		}
		// Apply the program's own .data image first; -poke can override it.
		for _, c := range prog.Data {
			if err := m.WriteMainNums(c.Addr, c.Values); err != nil {
				fatal(err)
			}
		}
		insts = prog.Instructions
	}
	for _, g := range gprs {
		reg, val, err := parseGPR(g)
		if err != nil {
			fatal(fmt.Errorf("-gpr %s: %w", g, err))
		}
		m.SetGPR(reg, val)
	}
	for _, p := range pokes {
		addr, vals, err := parsePoke(p)
		if err != nil {
			fatal(fmt.Errorf("-poke %s: %w", p, err))
		}
		if err := m.WriteMainNums(addr, vals); err != nil {
			fatal(err)
		}
	}
	if *dumpDecoded {
		dumpDecodedProgram(insts)
		return
	}
	m.LoadProgram(insts)
	obs := newObserver(m, *itrace, *traceOut, *profileFlag, *profileJSON, flag.Arg(0))
	stats, err := m.Run()
	obs.finish(err, *topN)
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		printJSON(&stats)
	} else {
		fmt.Printf("%v\n", &stats)
	}
	if *hist {
		printHistogram(&stats)
	}
	for _, d := range dumps {
		addr, count, err := parsePair(strings.Replace(d, ":", "=", 1))
		if err != nil {
			fatal(fmt.Errorf("-dump %s: %w", d, err))
		}
		ns, err := m.ReadMainNums(addr, count)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("[%d:%d] %v\n", addr, count, fixed.Floats(ns))
	}
}

// observer bundles the run's trace sinks — the text trace on stdout, a
// Chrome timeline writer and a stall-attribution profile, each when
// asked for — teed onto the machine.
type observer struct {
	chrome      *trace.Chrome
	chromeFile  *os.File
	chromePath  string
	profile     *trace.Profile
	profileText bool
	profilePath string
}

// newObserver opens the requested sinks, attaches them to m, and exits
// with a diagnostic if an output file cannot be created.
func newObserver(m *sim.Machine, itrace bool, tracePath string, profileText bool, profilePath, label string) *observer {
	o := &observer{chromePath: tracePath, profileText: profileText, profilePath: profilePath}
	var sinks []trace.Tracer
	if itrace {
		sinks = append(sinks, trace.NewText(os.Stdout))
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			fatal(fmt.Errorf("-trace: %w", err))
		}
		o.chromeFile = f
		o.chrome = trace.NewChrome(f)
		sinks = append(sinks, o.chrome)
	}
	if profileText || profilePath != "" {
		o.profile = trace.NewProfile()
		o.profile.Label = label
		sinks = append(sinks, o.profile)
	}
	m.SetTracer(trace.Tee(sinks...))
	return o
}

// finish flushes the sinks after the run. The Chrome file is completed
// even when the run failed (the partial timeline is the most useful
// debugging artifact); profile output is suppressed on failure.
func (o *observer) finish(runErr error, topN int) {
	if o.chrome != nil {
		if err := o.chrome.Close(); err != nil {
			fatal(fmt.Errorf("-trace %s: %w", o.chromePath, err))
		}
		if err := o.chromeFile.Close(); err != nil {
			fatal(fmt.Errorf("-trace %s: %w", o.chromePath, err))
		}
	}
	if o.profile == nil || runErr != nil {
		return
	}
	rep := o.profile.Report(topN)
	if o.profileText {
		fmt.Print(rep.Render())
	}
	if o.profilePath != "" {
		f, err := os.Create(o.profilePath)
		if err != nil {
			fatal(fmt.Errorf("-profile-json: %w", err))
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			f.Close()
			fatal(fmt.Errorf("-profile-json %s: %w", o.profilePath, err))
		}
		if err := f.Close(); err != nil {
			fatal(fmt.Errorf("-profile-json %s: %w", o.profilePath, err))
		}
	}
}

// dumpDecodedProgram prints the program's pre-decoded listing — encoded
// words and operand roles — to stdout.
func dumpDecodedProgram(insts []core.Instruction) {
	if err := writeDecodedListing(os.Stdout, insts); err != nil {
		fatal(err)
	}
}

// writeDecodedListing is the testable core of -dump-decoded: pre-decode
// and write the stable listing to w.
func writeDecodedListing(w io.Writer, insts []core.Instruction) error {
	dp, err := sim.Predecode(insts)
	if err != nil {
		return err
	}
	return dp.Dump(w)
}

// runAll executes every Table III benchmark through the shared suite's
// parallel harness and prints the results to stdout.
func runAll(seed uint64, workers int, jsonOut bool) {
	if err := writeBenchmarkAll(os.Stdout, seed, workers, jsonOut); err != nil {
		fatal(err)
	}
}

// writeBenchmarkAll is the testable core of -benchmark all: it runs every
// Table III benchmark (bench.Suite.RunAll) and writes either the
// statistics as one JSON object keyed by benchmark name or one summary
// line per benchmark in deterministic table order.
func writeBenchmarkAll(w io.Writer, seed uint64, workers int, jsonOut bool) error {
	s := bench.NewSuite(seed)
	results, err := s.RunAll(context.Background(), workers)
	if err != nil {
		return err
	}
	if jsonOut {
		out := make(map[string]*sim.Stats, len(results))
		for i := range results {
			out[results[i].Name] = &results[i].Stats
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	for _, r := range results {
		if _, err := fmt.Fprintf(w, "%-18s verified  cycles=%-8d instructions=%-7d time=%.2f us\n",
			r.Name, r.Stats.Cycles, r.Stats.Instructions, r.Stats.Seconds(s.Config.ClockHz)*1e6); err != nil {
			return err
		}
	}
	return nil
}

func parsePair(s string) (int, int, error) {
	parts := strings.SplitN(s, "=", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("want KEY=VALUE")
	}
	k, err := strconv.Atoi(parts[0])
	if err != nil {
		return 0, 0, err
	}
	v, err := strconv.Atoi(parts[1])
	if err != nil {
		return 0, 0, err
	}
	return k, v, nil
}

// parseGPR parses a -gpr REG=VALUE pair. The register must exist and the
// value must fit a 32-bit register read as signed or unsigned, so -1 and
// 4294967295 both set every bit, and nothing wraps silently.
func parseGPR(s string) (uint8, uint32, error) {
	reg, val, err := parsePair(s)
	if err != nil {
		return 0, 0, err
	}
	if reg < 0 || reg >= core.NumGPRs {
		return 0, 0, fmt.Errorf("register %d outside 0..%d", reg, core.NumGPRs-1)
	}
	if int64(val) < math.MinInt32 || int64(val) > math.MaxUint32 {
		return 0, 0, fmt.Errorf("value %d outside [%d, %d]", val, int64(math.MinInt32), int64(math.MaxUint32))
	}
	return uint8(reg), uint32(val), nil
}

func parsePoke(s string) (int, []fixed.Num, error) {
	parts := strings.SplitN(s, "=", 2)
	if len(parts) != 2 {
		return 0, nil, fmt.Errorf("want ADDR=v0,v1,...")
	}
	addr, err := strconv.Atoi(parts[0])
	if err != nil {
		return 0, nil, err
	}
	var vals []fixed.Num
	for _, f := range strings.Split(parts[1], ",") {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, nil, err
		}
		vals = append(vals, fixed.FromFloat(v))
	}
	return addr, vals, nil
}

func printJSON(stats *sim.Stats) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(stats); err != nil {
		fatal(err)
	}
}

func printHistogram(stats *sim.Stats) {
	fmt.Println("dynamic opcode histogram:")
	for _, oc := range stats.TopOpcodes(0) {
		fmt.Printf("  %-8v %10d (%5.1f%%)\n", oc.Op, oc.Count,
			100*float64(oc.Count)/float64(stats.Instructions))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "camsim:", err)
	os.Exit(1)
}
