package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"cambricon/internal/asm"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// TestDumpDecodedGolden pins the -dump-decoded listing format: the
// fixture program exercises all three fusion kinds (load->matvec,
// matvec->act, vec-chain) plus unfused scalar/control tails, and the
// listing — encoded words, operand roles, fusion markers, summary line —
// must match testdata/dump_decoded.golden byte for byte. Regenerate with
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
