package sim

import (
	"fmt"
	"testing"

	"cambricon/internal/asm"
)

// Kernel microbenchmarks for the execution hot paths this repo's perf work
// tracks (see docs/PERF.md): MMV and VMM contractions over zero-copy
// scratchpad views, the element-wise vector pipeline, and a steady-state
// Reset+Run cycle. allocs/op is the headline number — the per-instruction
// loop must not allocate once buffers are warm.

// kernelMachine builds a machine and warms it with one run of prog.
func kernelMachine(b *testing.B, src string) (*Machine, []byte) {
	b.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		b.Fatal(err)
	}
	m, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	m.LoadProgram(p.Instructions)
	if _, err := m.Run(); err != nil {
		b.Fatal(err)
	}
	return m, nil
}

func benchKernel(b *testing.B, src string) {
	m, _ := kernelMachine(b, src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset()
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMMVKernel: Vout = M x Vin, 256x256, the Fig. 12 inner loop.
func BenchmarkMMVKernel(b *testing.B) {
	benchKernel(b, fmt.Sprintf(`
	SMOVE $1, #%d
	SMOVE $4, #0
	SMOVE $5, #0
	SMOVE $6, #8192
	RV    $4, $1
	MMV   $6, $1, $5, $4, $1
`, 256))
}

// BenchmarkVMMKernel: Vout = Vin x M, the transpose-free backward-pass
// contraction, as fixed.VecMat's two-row accumulator sweep (axpy2Acc).
func BenchmarkVMMKernel(b *testing.B) {
	benchKernel(b, fmt.Sprintf(`
	SMOVE $1, #%d
	SMOVE $4, #0
	SMOVE $5, #0
	SMOVE $6, #8192
	RV    $4, $1
	VMM   $6, $1, $5, $4, $1
`, 256))
}

// BenchmarkVecChainKernel: a dependent element-wise vector chain, dominated
// by the vecCycles conflict model and the memory-queue dependence scan.
func BenchmarkVecChainKernel(b *testing.B) {
	benchKernel(b, `
	SMOVE $1, #512
	SMOVE $2, #0
	SMOVE $3, #4096
	SMOVE $4, #8192
	SMOVE $8, #32
c:	VAV   $4, $1, $2, $3
	VMV   $3, $1, $4, $2
	SADD  $8, $8, #-1
	CB    #c, $8
`)
}

// BenchmarkWeightUpdateKernel: one Autoencoder weight update on its
// largest tile (200 hidden × 320 inputs): the OP outer product, the MMS
// learning-rate scaling and the MSM subtraction, 64,000 elements each.
func BenchmarkWeightUpdateKernel(b *testing.B) {
	benchKernel(b, `
	SMOVE $1, #200
	SMOVE $2, #320
	SMOVE $3, #64000
	SMOVE $4, #0
	SMOVE $5, #400
	SMOVE $6, #0
	SMOVE $7, #128000
	RV    $4, $1
	RV    $5, $2
	OP    $7, $4, $1, $5, $2
	MMS   $7, $3, $7, #16
	MSM   $6, $3, $6, $7
`)
}

// TestHotKernelsAllocationFree pins the allocation-free property directly:
// steady-state Reset+Run of matrix and vector kernels must not allocate at
// all (views instead of copies, fixed-size access sets, reused pipeline
// rings).
func TestHotKernelsAllocationFree(t *testing.T) {
	srcs := map[string]string{
		"MMV": "\tSMOVE $1, #64\n\tSMOVE $4, #0\n\tSMOVE $5, #0\n\tSMOVE $6, #8192\n\tRV $4, $1\n\tMMV $6, $1, $5, $4, $1\n",
		"VMM": "\tSMOVE $1, #64\n\tSMOVE $4, #0\n\tSMOVE $5, #0\n\tSMOVE $6, #8192\n\tRV $4, $1\n\tVMM $6, $1, $5, $4, $1\n",
		"VAV": "\tSMOVE $1, #128\n\tSMOVE $2, #0\n\tSMOVE $3, #4096\n\tRV $2, $1\n\tVAV $3, $1, $2, $2\n",
		"OP":  "\tSMOVE $1, #64\n\tSMOVE $4, #0\n\tSMOVE $6, #0\n\tRV $4, $1\n\tOP $6, $4, $1, $4, $1\n",
	}
	for name, src := range srcs {
		p, err := asm.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		m.LoadProgram(p.Instructions)
		if _, err := m.Run(); err != nil { // warm buffers
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			m.Reset()
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("%s kernel: %v allocs per steady-state run, want 0", name, allocs)
		}
	}
}
