package bench

import (
	"strconv"
	"strings"
	"testing"

	"cambricon/internal/workload"
)

func newTestSuite() *Suite { return NewSuite(7) }

func TestAllExperimentsRun(t *testing.T) {
	s := newTestSuite()
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl, err := e.Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if len(tbl.Rows) == 0 {
				t.Error("empty table")
			}
			if out := tbl.Render(); !strings.Contains(out, e.ID) {
				t.Error("render missing experiment id")
			}
			if md := tbl.Markdown(); !strings.Contains(md, "|") {
				t.Error("markdown render broken")
			}
		})
	}
}

func TestExperimentByID(t *testing.T) {
	if _, ok := ExperimentByID("fig12"); !ok {
		t.Error("fig12 missing")
	}
	if _, ok := ExperimentByID("nope"); ok {
		t.Error("unknown id resolved")
	}
}

func TestFlexibilityMatchesPaper(t *testing.T) {
	s := newTestSuite()
	tbl, err := RunFlexibility(s)
	if err != nil {
		t.Fatal(err)
	}
	last := tbl.Rows[len(tbl.Rows)-1]
	if last[1] != "3/10" || last[2] != "10/10" {
		t.Errorf("flexibility totals %v, want 3/10 and 10/10", last)
	}
}

func TestFig10ShapeHolds(t *testing.T) {
	s := newTestSuite()
	tbl, err := RunFig10(s)
	if err != nil {
		t.Fatal(err)
	}
	// Structural expectations from the paper: for every benchmark
	// Cambricon is densest and MIPS sparsest; CNN has the smallest
	// GPU/Cambricon ratio of all benchmarks (Section V-B2).
	parse := func(cell string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "x"), 64)
		if err != nil {
			t.Fatalf("bad ratio cell %q", cell)
		}
		return v
	}
	var cnnGPU float64
	minGPU := 1e9
	for _, row := range tbl.Rows {
		if row[0] == "average (geomean)" {
			continue
		}
		gpuR, x86R, mipsR := parse(row[5]), parse(row[6]), parse(row[7])
		if gpuR <= 1 {
			t.Errorf("%s: Cambricon should be denser than GPU (%v)", row[0], gpuR)
		}
		if !(mipsR > x86R && x86R > gpuR) {
			t.Errorf("%s: want MIPS > x86 > GPU ratios, got %v/%v/%v",
				row[0], mipsR, x86R, gpuR)
		}
		if row[0] == "CNN" {
			cnnGPU = gpuR
		}
		if gpuR < minGPU {
			minGPU = gpuR
		}
	}
	if cnnGPU != minGPU {
		t.Errorf("CNN should have the smallest GPU/Cambricon ratio (got %v, min %v)", cnnGPU, minGPU)
	}
}

func TestFig11PercentagesSumToHundred(t *testing.T) {
	s := newTestSuite()
	tbl, err := RunFig11(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		var sum float64
		for _, cell := range row[2:] {
			v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
			if err != nil {
				t.Fatalf("bad cell %q", cell)
			}
			sum += v
		}
		if sum < 99.4 || sum > 100.6 {
			t.Errorf("%s %s: percentages sum to %v", row[0], row[1], sum)
		}
	}
}

// TestFig11AverageRowsInOrder: the two average rows close the table,
// static before dynamic like each benchmark's rows, on every run, so
// camrepro prints the same bytes every time.
func TestFig11AverageRowsInOrder(t *testing.T) {
	s := newTestSuite()
	for i := 0; i < 64; i++ {
		tbl, err := RunFig11(s)
		if err != nil {
			t.Fatal(err)
		}
		n := len(tbl.Rows)
		if got := []string{tbl.Rows[n-2][0], tbl.Rows[n-1][0]}; got[0] != "average (static)" || got[1] != "average (dynamic)" {
			t.Fatalf("run %d: last rows %q, want the static then the dynamic average", i, got)
		}
	}
}

func TestFig12ShapeHolds(t *testing.T) {
	s := newTestSuite()
	tbl, err := RunFig12(s)
	if err != nil {
		t.Fatal(err)
	}
	parse := func(cell string) (float64, bool) {
		if !strings.HasSuffix(cell, "x") {
			return 0, false
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "x"), 64)
		return v, err == nil
	}
	ddnCount := 0
	for _, row := range tbl.Rows {
		if row[0] == "average (geomean)" {
			continue
		}
		cpuR, ok1 := parse(row[2])
		gpuR, ok2 := parse(row[3])
		if !ok1 || !ok2 {
			t.Fatalf("bad row %v", row)
		}
		// Who wins: Cambricon-ACC beats both general-purpose machines on
		// every benchmark, and the CPU is the slowest.
		if cpuR <= 1 {
			t.Errorf("%s: Cambricon should beat the CPU (ratio %v)", row[0], cpuR)
		}
		if cpuR <= gpuR {
			t.Errorf("%s: CPU ratio (%v) should exceed GPU ratio (%v)", row[0], cpuR, gpuR)
		}
		if rd, ok := parse(row[4]); ok {
			ddnCount++
			// DaDianNao is at least as fast (ratio <= 1) on the shared
			// benchmarks.
			if rd > 1.001 {
				t.Errorf("%s: DaDianNao ratio %v should be <= 1", row[0], rd)
			}
		}
	}
	if ddnCount != 3 {
		t.Errorf("DaDianNao should run exactly 3 benchmarks, got %d", ddnCount)
	}
}

func TestFig13ShapeHolds(t *testing.T) {
	s := newTestSuite()
	tbl, err := RunFig13(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		if row[0] == "average (geomean)" {
			continue
		}
		cell := strings.TrimSuffix(row[2], "x")
		v, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			t.Fatalf("bad cell %q", row[2])
		}
		if v <= 1 {
			t.Errorf("%s: GPU energy ratio %v should exceed 1", row[0], v)
		}
	}
}

func TestSuiteCachesPrograms(t *testing.T) {
	s := newTestSuite()
	p1, err := s.Programs()
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := s.Programs()
	if &p1[0] != &p2[0] {
		t.Error("programs regenerated instead of cached")
	}
	if _, err := s.Program("MLP"); err != nil {
		t.Error(err)
	}
	if _, err := s.Program("nope"); err == nil {
		t.Error("unknown program resolved")
	}
}

func TestSuiteStatsCached(t *testing.T) {
	s := newTestSuite()
	st1, err := s.Stats("MLP")
	if err != nil {
		t.Fatal(err)
	}
	st2, _ := s.Stats("MLP")
	if st1.Cycles != st2.Cycles {
		t.Error("cached stats differ")
	}
}

func TestDaDianNaoSuiteCoverage(t *testing.T) {
	s := newTestSuite()
	for _, b := range workload.Benchmarks() {
		_, _, ok, err := s.DaDianNao(b.Name)
		if err != nil {
			t.Fatal(err)
		}
		want := b.Name == "MLP" || b.Name == "CNN" || b.Name == "RBM"
		if ok != want {
			t.Errorf("%s: expressible=%v, want %v", b.Name, ok, want)
		}
	}
}

func TestAblationsFavorThePaperDesign(t *testing.T) {
	s := newTestSuite()
	tbl, err := RunAblations(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("%d ablation rows", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		slow := strings.TrimSuffix(row[4], "x")
		v, err := strconv.ParseFloat(slow, 64)
		if err != nil {
			t.Fatalf("bad slowdown cell %q", row[4])
		}
		// Every ablation must cost cycles: the paper's design choice wins.
		if v <= 1.0 {
			t.Errorf("%s: ablated design not slower (%.2fx)", row[0], v)
		}
	}
}

// TestCycleCountGuardrails pins each benchmark's simulated latency to a
// coarse range: any order-of-magnitude regression in either the code
// generators or the timing model trips these without churning on small
// model adjustments.
func TestCycleCountGuardrails(t *testing.T) {
	bounds := map[string][2]int64{
		"MLP":                {1_000, 10_000},
		"CNN":                {8_000, 80_000},
		"RNN":                {800, 10_000},
		"LSTM":               {2_000, 25_000},
		"Autoencoder":        {4_000, 40_000},
		"Sparse Autoencoder": {4_000, 40_000},
		"BM":                 {30_000, 300_000},
		"RBM":                {8_000, 80_000},
		"SOM":                {10_000, 100_000},
		"HNN":                {400, 5_000},
	}
	s := newTestSuite()
	for name, b := range bounds {
		st, err := s.Stats(name)
		if err != nil {
			t.Fatal(err)
		}
		if st.Cycles < b[0] || st.Cycles > b[1] {
			t.Errorf("%s: %d cycles outside guardrail [%d, %d]", name, st.Cycles, b[0], b[1])
		}
	}
}

func TestTableRenderToleratesRaggedRows(t *testing.T) {
	tbl := &Table{ID: "x", Title: "ragged", Header: []string{"a", "b"}}
	tbl.AddRow("1", "2", "3") // wider than the header
	tbl.AddRow("only")
	out := tbl.Render()
	if !strings.Contains(out, "3") || !strings.Contains(out, "only") {
		t.Errorf("ragged render lost cells:\n%s", out)
	}
	if md := tbl.Markdown(); !strings.Contains(md, "| 1 | 2 | 3 |") {
		t.Errorf("markdown lost cells:\n%s", md)
	}
}
