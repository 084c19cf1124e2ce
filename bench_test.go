package cambricon

import (
	"context"
	"sync"
	"testing"

	"cambricon/internal/bench"
)

// The harness shares one suite across figure benchmarks so the expensive
// setup (program generation, simulator runs) is paid once; steady-state
// iterations measure the experiment evaluation itself.
var (
	suiteOnce sync.Once
	suite     *bench.Suite
)

func sharedSuite(b *testing.B) *bench.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suite = bench.NewSuite(7)
		if _, err := suite.Programs(); err != nil {
			b.Fatal(err)
		}
	})
	return suite
}

func benchExperiment(b *testing.B, id string) {
	s := sharedSuite(b)
	e, ok := bench.ExperimentByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	if _, err := e.Run(s); err != nil { // warm caches, verify it works
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(s); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per reproduced table/figure (see DESIGN.md §5).

func BenchmarkTableIOverview(b *testing.B)      { benchExperiment(b, "tab1") }
func BenchmarkTableIIParameters(b *testing.B)   { benchExperiment(b, "tab2") }
func BenchmarkTableIIIBenchmarks(b *testing.B)  { benchExperiment(b, "tab3") }
func BenchmarkFlexibility(b *testing.B)         { benchExperiment(b, "flex") }
func BenchmarkFig10CodeDensity(b *testing.B)    { benchExperiment(b, "fig10") }
func BenchmarkFig11InstructionMix(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFig12Speedup(b *testing.B)        { benchExperiment(b, "fig12") }
func BenchmarkFig13Energy(b *testing.B)         { benchExperiment(b, "fig13") }
func BenchmarkTableIVLayout(b *testing.B)       { benchExperiment(b, "tab4") }
func BenchmarkLogisticExtension(b *testing.B)   { benchExperiment(b, "logreg") }

// Per-benchmark served runs, as camserve serves them: one untimed run
// prepares the program's decode and snapshot and verifies its outputs
// against the float64 reference, then each iteration is a warm
// Suite.RunOnce — a pooled machine restored from the snapshot, the
// simulation, and a byte comparison of the outputs.
func benchSimulate(b *testing.B, name string) {
	s := sharedSuite(b)
	ctx := context.Background()
	if _, err := s.RunOnce(ctx, name); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.RunOnce(ctx, name); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateMLP(b *testing.B)               { benchSimulate(b, "MLP") }
func BenchmarkSimulateCNN(b *testing.B)               { benchSimulate(b, "CNN") }
func BenchmarkSimulateRNN(b *testing.B)               { benchSimulate(b, "RNN") }
func BenchmarkSimulateLSTM(b *testing.B)              { benchSimulate(b, "LSTM") }
func BenchmarkSimulateAutoencoder(b *testing.B)       { benchSimulate(b, "Autoencoder") }
func BenchmarkSimulateSparseAutoencoder(b *testing.B) { benchSimulate(b, "Sparse Autoencoder") }
func BenchmarkSimulateBM(b *testing.B)                { benchSimulate(b, "BM") }
func BenchmarkSimulateRBM(b *testing.B)               { benchSimulate(b, "RBM") }
func BenchmarkSimulateSOM(b *testing.B)               { benchSimulate(b, "SOM") }
func BenchmarkSimulateHNN(b *testing.B)               { benchSimulate(b, "HNN") }

// Micro-benchmarks of the toolchain itself.

func BenchmarkAssembler(b *testing.B) {
	p, err := GenerateBenchmark("CNN", 7)
	if err != nil {
		b.Fatal(err)
	}
	src := p.Source
	b.ReportMetric(float64(p.Len()), "instructions")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Assemble(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeDecode(b *testing.B) {
	p := mustAssemble(b, "\tMMV $7, $1, $4, $3, $0\n")
	inst := p.Instructions[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := Encode(inst)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Decode(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMMVThroughput measures simulator throughput on the core matrix
// primitive (a 256x256 MMV per iteration).
func BenchmarkMMVThroughput(b *testing.B) {
	p := mustAssemble(b, `
	SMOVE $1, #256
	SMOVE $2, #65536
	SMOVE $4, #0
	SMOVE $5, #0
	SMOVE $6, #8192
	RV    $4, $1
	MMV   $6, $1, $5, $4, $1
`)
	m, err := NewMachine(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset()
		m.LoadProgram(p.Instructions)
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(256*256, "MACs/op")
}

// BenchmarkMMVvsVDOTAblation reports the Section III-A design-choice
// ablation: one MMV versus a row of VDOTs for the same matrix-vector
// product (the dedicated instruction must win).
func BenchmarkMMVvsVDOTAblation(b *testing.B) {
	mmv := mustAssemble(b, `
	SMOVE $1, #64
	SMOVE $4, #0
	SMOVE $6, #8192
	RV    $4, $1
	MMV   $6, $1, $5, $4, $1
`)
	var vdotSrc string
	vdotSrc = "\tSMOVE $1, #64\n\tSMOVE $4, #0\n\tSMOVE $5, #8192\n\tRV $4, $1\n"
	for i := 0; i < 64; i++ {
		vdotSrc += "\tVDOT $10, $1, $4, $5\n"
	}
	vdot := mustAssemble(b, vdotSrc)
	m, err := NewMachine(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	run := func(p *Program) int64 {
		m.Reset()
		m.LoadProgram(p.Instructions)
		st, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		return st.Cycles
	}
	mmvCycles := run(mmv)
	vdotCycles := run(vdot)
	if mmvCycles >= vdotCycles {
		b.Fatalf("MMV (%d cycles) should beat VDOT decomposition (%d cycles)",
			mmvCycles, vdotCycles)
	}
	b.ReportMetric(float64(vdotCycles)/float64(mmvCycles), "speedup")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(mmv)
	}
}

func BenchmarkDesignAblations(b *testing.B) { benchExperiment(b, "ablate") }

func BenchmarkMMVUtilizationSweep(b *testing.B) { benchExperiment(b, "sweep") }
