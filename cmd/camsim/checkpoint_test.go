package main

// Tests pinning the -checkpoint-at/-checkpoint/-resume CLI surface: a
// run interrupted by a checkpoint finishes with statistics bit-identical
// to the uninterrupted run, the written CAMCKPT1 file resumes to the
// same statistics in a fresh process, and corrupted files are rejected.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cambricon/internal/asm"
	"cambricon/internal/cmdtest"
	"cambricon/internal/sim"
)

// TestCheckpointResumeAcrossProcesses drives the checkpoint round trip
// through camsim processes: a plain -json run, a run interrupted by
// -checkpoint-at 12 -checkpoint that finishes anyway, and a -resume of
// the file it wrote must print identical statistics. A -resume with
// -itrace must print the plain run's -itrace lines from index 12 on,
// then the same statistics, and a -resume with -dump must print what
// -dump prints after the plain run. The file stores only nonzero scratchpad
// pages, and a version-3 file (which also had a flags word) is refused,
// naming both versions.
func TestCheckpointResumeAcrossProcesses(t *testing.T) {
	prog := filepath.Join("..", "..", "testdata", "sum_loop.cam")
	ckpt := filepath.Join(t.TempDir(), "sum_loop.ckpt")
	plain, stderr, err := cmdtest.Run(t, "camsim", "-json", prog)
	if err != nil {
		t.Fatalf("plain run: %v\n%s", err, stderr)
	}
	for _, c := range []struct {
		name string
		args []string
	}{
		{"checkpointed run", []string{"-checkpoint-at", "12", "-checkpoint", ckpt, "-json", prog}},
		{"resumed run", []string{"-resume", ckpt, "-json"}},
	} {
		got, stderr, err := cmdtest.Run(t, "camsim", c.args...)
		if err != nil {
			t.Fatalf("%s: %v\n%s", c.name, err, stderr)
		}
		if got != plain {
			t.Fatalf("%s diverges from the plain run:\n--- plain ---\n%s\n--- %s ---\n%s", c.name, plain, c.name, got)
		}
	}

	traced, stderr, err := cmdtest.Run(t, "camsim", "-itrace", "-json", prog)
	if err != nil {
		t.Fatalf("traced run: %v\n%s", err, stderr)
	}
	lines := strings.SplitAfter(traced, "\n")
	if len(lines) < 13 || !strings.HasPrefix(lines[12], "      12  cyc=") {
		t.Fatalf("traced run does not trace instruction 12 on its 13th line:\n%s", traced)
	}
	got, stderr, err := cmdtest.Run(t, "camsim", "-resume", ckpt, "-itrace", "-json")
	if err != nil {
		t.Fatalf("traced resume: %v\n%s", err, stderr)
	}
	if want := strings.Join(lines[12:], ""); got != want {
		t.Fatalf("traced resume diverges from the traced run's lines from index 12 on:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}

	dumped, stderr, err := cmdtest.Run(t, "camsim", "-dump", "200:1", prog)
	if err != nil || !strings.Contains(dumped, "\n[200:1] ") {
		t.Fatalf("plain run with -dump 200:1: %v, stdout %q\n%s", err, dumped, stderr)
	}
	got, stderr, err = cmdtest.Run(t, "camsim", "-resume", ckpt, "-dump", "200:1")
	if err != nil {
		t.Fatalf("resume with -dump: %v\n%s", err, stderr)
	}
	if got != dumped {
		t.Fatalf("resume with -dump diverges from the plain run:\n--- want ---\n%s\n--- got ---\n%s", dumped, got)
	}

	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	if pads := cfg.VectorSpadBytes + cfg.MatrixSpadBytes; len(raw) >= pads {
		t.Errorf("checkpoint is %d bytes, no smaller than the two scratchpads (%d bytes): pads stored densely", len(raw), pads)
	}
	// The version word follows the 8-byte magic; reseal the CRC so the
	// version check, not the integrity check, rejects the file.
	binary.LittleEndian.PutUint32(raw[8:], 3)
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.ChecksumIEEE(raw[:len(raw)-4]))
	v3 := filepath.Join(t.TempDir(), "v3.ckpt")
	if err := os.WriteFile(v3, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, stderr, err := cmdtest.Run(t, "camsim", "-resume", v3, "-json"); err == nil ||
		!strings.Contains(stderr, "unsupported version 3 (want 4)") {
		t.Fatalf("version-3 resume: err = %v, stderr %q; want it refused naming both versions", err, stderr)
	}
}

// TestResumeRejectsProgramFlags pins that -resume refuses each flag
// that loads, seeds or prints a program, with exit status 2 and a
// message naming the flag, instead of ignoring it: the checkpoint
// carries the program and the machine state.
func TestResumeRejectsProgramFlags(t *testing.T) {
	var buf bytes.Buffer
	if _, err := runCheckpointed(loadSumLoop(t), 12, &buf); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "sum_loop.ckpt")
	if err := os.WriteFile(ckpt, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-gpr", "1=5"},
		{"-poke", "100=1.5"},
		{"-bin"},
		{"-v"},
		{"-dump-decoded"},
	} {
		t.Run(args[0], func(t *testing.T) {
			stdout, stderr, err := cmdtest.Run(t, "camsim", append([]string{"-resume", ckpt}, args...)...)
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("exit = %v, want status 2; stdout %q", err, stdout)
			}
			if !strings.Contains(stderr, args[0]+" does not apply to -resume") {
				t.Errorf("stderr %q does not name %s", stderr, args[0])
			}
			if stdout != "" {
				t.Errorf("rejected run printed %q", stdout)
			}
		})
	}
}

// loadSumLoop builds a fresh machine with the sum_loop smoke program
// loaded (data image applied), ready to run from PC 0.
func loadSumLoop(t *testing.T) *sim.Machine {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "sum_loop.cam"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(string(src))
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.New(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range prog.Data {
		if err := m.WriteMainNums(c.Addr, c.Values); err != nil {
			t.Fatal(err)
		}
	}
	m.LoadProgram(prog.Instructions)
	return m
}

func TestCheckpointResumeCLI(t *testing.T) {
	full, err := loadSumLoop(t).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []int64{1, full.Instructions / 2, full.Instructions - 1} {
		var buf bytes.Buffer
		st, err := runCheckpointed(loadSumLoop(t), at, &buf)
		if err != nil {
			t.Fatalf("at=%d: %v", at, err)
		}
		if !reflect.DeepEqual(st, full) {
			t.Fatalf("at=%d: checkpointed run stats diverge:\n got  %+v\n want %+v", at, st, full)
		}
		m, err := restoreCheckpoint(bytes.NewReader(buf.Bytes()), 0)
		if err != nil {
			t.Fatalf("at=%d: restore: %v", at, err)
		}
		resumed, err := m.Resume()
		if err != nil {
			t.Fatalf("at=%d: resume: %v", at, err)
		}
		if !reflect.DeepEqual(resumed, full) {
			t.Fatalf("at=%d: resumed run stats diverge:\n got  %+v\n want %+v", at, resumed, full)
		}
	}
}

func TestCheckpointPastEndRejected(t *testing.T) {
	full, err := loadSumLoop(t).Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := runCheckpointed(loadSumLoop(t), full.Instructions+10, &buf); err == nil {
		t.Fatal("expected error checkpointing past program end")
	}
}

func TestResumeCorruptedCheckpointRejected(t *testing.T) {
	var buf bytes.Buffer
	if _, err := runCheckpointed(loadSumLoop(t), 3, &buf); err != nil {
		t.Fatal(err)
	}
	data := bytes.Clone(buf.Bytes())
	data[len(data)-1] ^= 1 // CRC trailer
	if _, err := restoreCheckpoint(bytes.NewReader(data), 0); err == nil {
		t.Fatal("expected corrupted checkpoint to be rejected")
	}
	if _, err := restoreCheckpoint(bytes.NewReader(data[:len(data)/2]), 0); err == nil {
		t.Fatal("expected truncated checkpoint to be rejected")
	}
}
