package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cambricon/internal/bench"
	"cambricon/internal/cmdtest"
	"cambricon/internal/fault"
)

var update = flag.Bool("update", false, "rewrite the generated half of EXPERIMENTS.md")

// TestMain lets tests run the real camrepro in a child process
// (cmdtest.Run).
func TestMain(m *testing.M) { cmdtest.Main(m, "camrepro", main) }

// generatedHeading starts the half of EXPERIMENTS.md that `camrepro -md`
// writes; everything before it is written by hand.
const generatedHeading = "# Generated results (seed 7)\n\n"

// TestMarkdownIsTheExperimentsRecord pins every table of the evaluation:
// the real `camrepro -md` (seed 7) must equal the generated half of
// EXPERIMENTS.md byte for byte. After a declared model change, `go test
// ./cmd/camrepro -run TestMarkdownIsTheExperimentsRecord -update`
// rewrites that half and leaves the hand-written half as it is.
func TestMarkdownIsTheExperimentsRecord(t *testing.T) {
	stdout, stderr, err := cmdtest.Run(t, "camrepro", "-md")
	if err != nil {
		t.Fatalf("camrepro -md: %v\n%s", err, stderr)
	}
	path := filepath.Join("..", "..", "EXPERIMENTS.md")
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(doc, []byte(generatedHeading))
	if at < 0 {
		t.Fatalf("%s has no %q heading", path, strings.TrimSpace(generatedHeading))
	}
	handWritten, recorded := doc[:at+len(generatedHeading)], string(doc[at+len(generatedHeading):])
	if *update {
		if err := os.WriteFile(path, append(handWritten, stdout...), 0o644); err != nil {
			t.Fatal(err)
		}
		recorded = stdout
	}
	if stdout == recorded {
		return
	}
	got, want := strings.Split(stdout, "\n"), strings.Split(recorded, "\n")
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("camrepro -md differs from %s's generated half at its line %d:\ngot:  %q\nwant: %q", path, i+1, g, w)
		}
	}
}

// TestFaultJSONOneBenchmark runs the real camrepro's fault campaign
// over one benchmark. The file it writes must be byte-equal to the
// report of the same campaign run in process (seed 7, 10 sites, 8
// checkpoints, the suite's MLP target), and an unknown -fault-bench
// must exit non-zero, naming the benchmark.
func TestFaultJSONOneBenchmark(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "faults.json")
	if _, stderr, err := cmdtest.Run(t, "camrepro", "-fault-json", path, "-fault-bench", "MLP", "-fault-sites", "10"); err != nil {
		t.Fatalf("camrepro -fault-json: %v\n%s", err, stderr)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	targets, err := bench.NewSuite(7).FaultTargets()
	if err != nil {
		t.Fatal(err)
	}
	var mlp []fault.Target
	for _, tg := range targets {
		if tg.Name() == "MLP" {
			mlp = append(mlp, tg)
		}
	}
	c := fault.Campaign{Seed: 7, Sites: 10, Checkpoints: 8}
	rep, err := c.Run(context.Background(), mlp)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := rep.Write(&want); err != nil {
		t.Fatal(err)
	}
	if len(mlp) != 1 || !bytes.Equal(got, want.Bytes()) {
		t.Errorf("-fault-json wrote %d bytes, want the %d-byte in-process MLP report (%d MLP targets)", len(got), want.Len(), len(mlp))
	}

	_, stderr, err := cmdtest.Run(t, "camrepro", "-fault-json", filepath.Join(dir, "none.json"), "-fault-bench", "NoSuchNet", "-fault-sites", "1")
	if err == nil || !strings.Contains(stderr, `"NoSuchNet"`) {
		t.Errorf("-fault-bench NoSuchNet: err = %v, stderr %q; want a failure naming the benchmark", err, stderr)
	}
}
