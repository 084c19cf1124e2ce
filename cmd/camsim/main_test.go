package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"cambricon/internal/asm"
	"cambricon/internal/cmdtest"
	"cambricon/internal/fixed"
	"cambricon/internal/sim"
	"cambricon/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// TestMain lets tests run the real camsim in a child process
// (cmdtest.Run).
func TestMain(m *testing.M) { cmdtest.Main(m, "camsim", main) }

// TestDumpDecodedGolden pins the -dump-decoded listing format: the
// fixture program mixes data-transfer, matrix, vector, scalar and control
// instructions, and the listing — encoded words, operand roles, summary
// line — must match testdata/dump_decoded.golden byte for byte. Regenerate with
// `go test ./cmd/camsim -run TestDumpDecodedGolden -update` after a
// deliberate format change.
func TestDumpDecodedGolden(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "dump_decoded.cam"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(string(src))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeDecodedListing(&buf, prog.Instructions); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "dump_decoded.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("-dump-decoded listing diverged from golden:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestVersionNamesKernelForm checks that -version prints the release
// on its first line and, on its second, the form of the fixed-point
// kernels the host runs, so a host-speed figure can be tied to it.
func TestVersionNamesKernelForm(t *testing.T) {
	stdout, stderr, err := cmdtest.Run(t, "camsim", "-version")
	if err != nil {
		t.Fatalf("camsim -version: %v\n%s", err, stderr)
	}
	lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "camsim ") {
		t.Fatalf("camsim -version printed %q, want the release line and the kernels line", stdout)
	}
	if want := "kernels: " + fixed.KernelForm(); lines[1] != want {
		t.Errorf("second line %q, want %q", lines[1], want)
	}
	if form := fixed.KernelForm(); form != "avx2" && form != "go" {
		t.Errorf("fixed.KernelForm() = %q, want avx2 or go", form)
	}
}

func TestParsePair(t *testing.T) {
	k, v, err := parsePair("3=64")
	if err != nil || k != 3 || v != 64 {
		t.Errorf("parsePair = %d,%d,%v", k, v, err)
	}
	for _, bad := range []string{"", "3", "x=1", "1=y", "=", "1=2=3"} {
		if _, _, err := parsePair(bad); err == nil {
			t.Errorf("parsePair(%q) accepted", bad)
		}
	}
}

func TestParsePoke(t *testing.T) {
	addr, vals, err := parsePoke("100=1.5,-2,0.25")
	if err != nil {
		t.Fatal(err)
	}
	if addr != 100 || len(vals) != 3 {
		t.Errorf("parsePoke = %d,%v", addr, vals)
	}
	if vals[0].Float() != 1.5 || vals[1].Float() != -2 || vals[2].Float() != 0.25 {
		t.Errorf("values = %v", vals)
	}
	for _, bad := range []string{"", "100", "x=1", "100=", "100=1,,2", "100=zz"} {
		if _, _, err := parsePoke(bad); err == nil {
			t.Errorf("parsePoke(%q) accepted", bad)
		}
	}
}

func TestMultiFlag(t *testing.T) {
	var m multiFlag
	if err := m.Set("a"); err != nil {
		t.Fatal(err)
	}
	if err := m.Set("b"); err != nil {
		t.Fatal(err)
	}
	if m.String() != "a,b" || len(m) != 2 {
		t.Errorf("multiFlag = %q", m.String())
	}
}

// TestBenchmarkAllGolden pins the simulated results of all ten Table III
// benchmarks: `camsim -benchmark all -json` at the default seed must
// match testdata/benchmark_all.golden.json byte for byte — cycles,
// instruction counts, the CPI stack, opcode histograms, everything the
// statistics carry. A change every run mode shares (timing model, code
// generation) therefore cannot slip through as long as the modes agree
// with each other. Regenerate with
// `go test ./cmd/camsim -run TestBenchmarkAllGolden -update` only for a
// declared model change.
func TestBenchmarkAllGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := writeBenchmarkAll(&buf, 7, 0, true); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "benchmark_all.golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("-benchmark all -json diverged from %s (%d bytes, want %d); rerun with -update only for a declared model change",
			golden, buf.Len(), len(want))
	}
}

// chromeEvent is the part of a Chrome trace event the tests read.
type chromeEvent struct {
	Name string         `json:"name"`
	Args map[string]any `json:"args"`
}

// chromeEvents parses a -trace file as a Chrome Trace Event document.
func chromeEvents(t *testing.T, path string) []chromeEvent {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%s is not a JSON document (%d bytes): %v", path, len(raw), err)
	}
	return doc.TraceEvents
}

// TestTraceAndProfileFiles runs the real camsim with all three of its
// observability sinks teed onto one run. A benchmark run's -itrace must
// print one line per committed instruction before the -json
// statistics, its -trace file must be a Chrome Trace document declaring
// the pipeline tracks, whose "run end" marker carries the Cycles -json
// printed, and its -profile-json stall attribution must sum to those
// Cycles. A run the -max-cycles watchdog stops must exit non-zero and
// still leave a complete trace document.
func TestTraceAndProfileFiles(t *testing.T) {
	dir := t.TempDir()
	tracePath, profilePath := filepath.Join(dir, "trace.json"), filepath.Join(dir, "profile.json")
	stdout, stderr, err := cmdtest.Run(t, "camsim", "-benchmark", "MLP", "-itrace", "-trace", tracePath, "-profile-json", profilePath, "-json")
	if err != nil {
		t.Fatalf("traced run: %v\n%s", err, stderr)
	}
	itrace, statsJSON, ok := strings.Cut(stdout, "\n{")
	if !ok {
		t.Fatalf("stdout holds no -json statistics:\n%s", stdout)
	}
	var stats sim.Stats
	if err := json.Unmarshal([]byte("{"+statsJSON), &stats); err != nil || stats.Cycles <= 0 {
		t.Fatalf("-json printed %q (%v), want the run statistics", statsJSON, err)
	}
	if lines := strings.Split(itrace, "\n"); int64(len(lines)) != stats.Instructions {
		t.Errorf("-itrace printed %d lines, want one per committed instruction (%d)", len(lines), stats.Instructions)
	} else if !strings.HasPrefix(lines[0], "       0  cyc=") {
		t.Errorf("-itrace first line = %q, want instruction 0", lines[0])
	}

	tracks := map[string]bool{}
	endCycles := -1.0
	for _, ev := range chromeEvents(t, tracePath) {
		switch ev.Name {
		case "thread_name":
			name, _ := ev.Args["name"].(string)
			tracks[name] = true
		case "run end":
			endCycles, _ = ev.Args["total_cycles"].(float64)
		}
	}
	for _, track := range []string{"frontend (fetch->issue)", "vector FU", "matrix FU", "vector DMA", "matrix DMA", "commit"} {
		if !tracks[track] {
			t.Errorf("trace declares no %q track", track)
		}
	}
	if endCycles != float64(stats.Cycles) {
		t.Errorf("trace run end total_cycles = %v, want the printed Cycles %d", endCycles, stats.Cycles)
	}

	raw, err := os.ReadFile(profilePath)
	if err != nil {
		t.Fatal(err)
	}
	var rep trace.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("-profile-json: %v", err)
	}
	var sum int64
	for _, s := range rep.Stalls {
		sum += s.Cycles
	}
	if len(rep.Stalls) == 0 || sum != stats.Cycles {
		t.Errorf("profile stall attribution sums to %d over %d causes, want the printed Cycles %d", sum, len(rep.Stalls), stats.Cycles)
	}

	failedPath := filepath.Join(dir, "failed.json")
	if _, stderr, err := cmdtest.Run(t, "camsim", "-benchmark", "MLP", "-max-cycles", "1000", "-trace", failedPath); err == nil {
		t.Fatalf("run past -max-cycles exited 0; stderr %q", stderr)
	}
	if evs := chromeEvents(t, failedPath); len(evs) == 0 {
		t.Error("trace of the failed run holds no events")
	}
}

// TestBenchmarkAllRejectsPerRunFlags pins that -benchmark all refuses
// each flag that observes or bounds a single run, with exit status 2 and
// a message naming the flag, instead of ignoring it.
func TestBenchmarkAllRejectsPerRunFlags(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-trace", filepath.Join(dir, "trace.json")},
		{"-profile"},
		{"-profile-json", filepath.Join(dir, "profile.json")},
		{"-dump-decoded"},
		{"-itrace"},
		{"-max-cycles", "100"},
		{"-hist"},
		{"-v"},
	} {
		t.Run(args[0], func(t *testing.T) {
			stdout, stderr, err := cmdtest.Run(t, "camsim", append([]string{"-benchmark", "all"}, args...)...)
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("exit = %v, want status 2; stdout %q", err, stdout)
			}
			if !strings.Contains(stderr, args[0]+" needs a single run") {
				t.Errorf("stderr %q does not name %s", stderr, args[0])
			}
			if stdout != "" {
				t.Errorf("rejected run printed %q", stdout)
			}
		})
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("rejected runs left %d files behind", len(entries))
	}
}

// runArgs returns the camsim arguments a testdata program's header gives
// on its "Run:" line (continued across comment lines by a trailing
// backslash), with the program's repo-relative path replaced by path.
// Quoted values hold no spaces, so the quotes are simply dropped.
func runArgs(t *testing.T, path string) []string {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var cmd []string
	found := false
	for _, line := range strings.Split(string(src), "\n") {
		text, ok := strings.CutPrefix(line, "//")
		if !ok {
			break
		}
		if !found {
			if _, text, found = strings.Cut(text, "Run:"); !found {
				continue
			}
		}
		text = strings.TrimSpace(text)
		cont := strings.HasSuffix(text, `\`)
		cmd = append(cmd, strings.Fields(strings.TrimSuffix(text, `\`))...)
		if !cont {
			break
		}
	}
	const prefix = "go run ./cmd/camsim"
	prog := "testdata/" + filepath.Base(path)
	if len(cmd) < 4 || strings.Join(cmd[:3], " ") != prefix || cmd[len(cmd)-1] != prog {
		t.Fatalf("%s: header Run: line %q is not %q, flags, %s", path, strings.Join(cmd, " "), prefix, prog)
	}
	args := cmd[3:]
	for i := range args {
		args[i] = strings.Trim(args[i], `"`)
	}
	args[len(args)-1] = path
	return args
}

// mlpReference is the float layer fig7_mlp.cam computes from its .data
// image: sigmoid(Wx + b) for the input x at 100, the row-major weights
// W at 300 and the bias b at 400.
func mlpReference(t *testing.T, path string) []float64 {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(string(src))
	if err != nil {
		t.Fatal(err)
	}
	data := map[int][]float64{}
	for _, c := range prog.Data {
		data[c.Addr] = fixed.Floats(c.Values)
	}
	x, w, b := data[100], data[300], data[400]
	if len(x) == 0 || len(w) != len(x)*len(b) {
		t.Fatalf("%s: .data holds x %v, W %v, b %v", path, x, w, b)
	}
	y := make([]float64, len(b))
	for i := range y {
		z := b[i]
		for j, xj := range x {
			z += w[i*len(x)+j] * xj
		}
		y[i] = 1 / (1 + math.Exp(-z))
	}
	return y
}

// TestTestdataProgramsRun runs the real camsim on each testdata/*.cam
// program with the flags of its header's Run: line and checks the -dump
// line it ends with: the sum of 1..10, Fig. 7's max pooling of the
// poked window, and Fig. 7's MLP layer, each of whose outputs must also
// lie within one Q8.8 step (2^-8) of the float layer. A -json run of
// sum_loop.cam must print the statistics of its 34 instructions.
func TestTestdataProgramsRun(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata")
	programs := []struct {
		file string
		dump string    // the last line the run prints
		ref  []float64 // float values the dumped ones approximate, if any
	}{
		{"sum_loop.cam", "[200:1] [55]", nil},
		{"fig7_pooling.cam", "[200:4] [5 6 4 3]", nil},
		{"fig7_mlp.cam", "[200:3] [0.31640625 0.31640625 0.91796875]", mlpReference(t, filepath.Join(dir, "fig7_mlp.cam"))},
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.cam"))
	if err != nil || len(files) != len(programs) {
		t.Fatalf("testdata holds %d programs (%v), this table %d: give each one a row", len(files), err, len(programs))
	}
	for _, p := range programs {
		t.Run(p.file, func(t *testing.T) {
			stdout, stderr, err := cmdtest.Run(t, "camsim", runArgs(t, filepath.Join(dir, p.file))...)
			if err != nil {
				t.Fatalf("%v\n%s", err, stderr)
			}
			if !strings.HasSuffix(stdout, "\n"+p.dump+"\n") {
				t.Fatalf("output does not end with %q:\n%s", p.dump, stdout)
			}
			// The output ends with p.dump, so its values are p.dump's.
			_, vals, _ := strings.Cut(strings.Trim(p.dump, "]"), "] [")
			for i, f := range strings.Fields(vals)[:len(p.ref)] {
				v, err := strconv.ParseFloat(f, 64)
				if err != nil || math.Abs(v-p.ref[i]) > 1.0/256 {
					t.Errorf("output %d = %s (%v), want within 2^-8 of the float %.4f", i, f, err, p.ref[i])
				}
			}
		})
	}

	stdout, stderr, err := cmdtest.Run(t, "camsim", "-json", filepath.Join(dir, "sum_loop.cam"))
	if err != nil {
		t.Fatalf("-json sum_loop.cam: %v\n%s", err, stderr)
	}
	dec := json.NewDecoder(strings.NewReader(stdout))
	dec.DisallowUnknownFields()
	var stats sim.Stats
	if err := dec.Decode(&stats); err != nil || stats.Instructions != 34 {
		t.Fatalf("-json sum_loop.cam printed %d instructions (%v), want 34:\n%s", stats.Instructions, err, stdout)
	}
}

// TestGPRFlagRange runs the real camsim with one -gpr each. A register
// outside $0..$63 or a value outside 32 bits must fail before the run
// with an error naming -gpr: neither may panic on the register index or
// wrap onto another register or value. A value may be written signed or
// unsigned, so -1 sets every bit.
func TestGPRFlagRange(t *testing.T) {
	prog := filepath.Join("..", "..", "testdata", "sum_loop.cam")
	for _, c := range []struct {
		arg string
		reg uint8
		val uint32
		bad string // what the error names; "" when the pair is accepted
	}{
		{"1=-1", 1, 0xFFFFFFFF, ""},
		{"63=4294967295", 63, 0xFFFFFFFF, ""},
		{"0=-2147483648", 0, 0x80000000, ""},
		{"99=1", 0, 0, "register 99 outside 0..63"},
		{"-1=7", 0, 0, "register -1 outside 0..63"},
		{"300=7", 0, 0, "register 300 outside 0..63"},
		{"44=4294967297", 0, 0, "value 4294967297 outside [-2147483648, 4294967295]"},
		{"44=-2147483649", 0, 0, "value -2147483649 outside [-2147483648, 4294967295]"},
	} {
		t.Run(c.arg, func(t *testing.T) {
			reg, val, err := parseGPR(c.arg)
			if c.bad == "" && (err != nil || reg != c.reg || val != c.val) {
				t.Fatalf("parseGPR = $%d, %#x, %v; want $%d, %#x", reg, val, err, c.reg, c.val)
			}
			if c.bad != "" && (err == nil || err.Error() != c.bad) {
				t.Fatalf("parseGPR error = %v, want %q", err, c.bad)
			}
			stdout, stderr, err := cmdtest.Run(t, "camsim", "-gpr", c.arg, prog)
			if c.bad == "" {
				if err != nil {
					t.Fatalf("camsim -gpr %s: %v\n%s", c.arg, err, stderr)
				}
				return
			}
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("exit = %v, want status 1; stdout %q, stderr %q", err, stdout, stderr)
			}
			if want := "camsim: -gpr " + c.arg + ": " + c.bad + "\n"; stderr != want {
				t.Errorf("stderr %q, want %q", stderr, want)
			}
			if stdout != "" {
				t.Errorf("rejected run printed %q", stdout)
			}
		})
	}
}
