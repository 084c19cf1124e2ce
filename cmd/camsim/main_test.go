package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
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
