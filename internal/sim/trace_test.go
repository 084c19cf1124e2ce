package sim

import (
	"testing"

	"cambricon/internal/asm"
	"cambricon/internal/trace"
)

// traceTestPrograms are small programs covering the pipeline's corners:
// scalar loops (branch redirects), dependent vector chains (memory-queue
// dependences), matrix work and DMA traffic.
var traceTestPrograms = map[string]string{
	"scalar-loop": `
	SMOVE  $1, #10
	SMOVE  $2, #0
top:	SADD   $2, $2, $1
	SADD   $1, $1, #-1
	CB     #top, $1
`,
	"mlp-layer": `
.data 100: 0.5, -1, 0.25
.data 300: 0.5, 1, -0.5, -1, 0.25, 0.75, 2, -1, 0.5
.data 400: 0.1, -0.2, 0.3
	SMOVE  $0, #3
	SMOVE  $1, #3
	SMOVE  $2, #9
	SMOVE  $3, #0
	SMOVE  $4, #0
	SMOVE  $5, #64
	SMOVE  $6, #512
	SMOVE  $7, #128
	SMOVE  $8, #192
	VLOAD  $3, $0, #100
	VLOAD  $5, $1, #400
	MLOAD  $4, $2, #300
	MMV    $7, $1, $4, $3, $0
	VAV    $7, $1, $7, $5
	VEXP   $8, $1, $7
	VAS    $7, $1, $8, #256
	VDV    $6, $1, $8, $7
	VSTORE $6, $1, #200
`,
	"dependent-vectors": `
.data 100: 1, 2, 3, 4, 5, 6, 7, 8
	SMOVE  $0, #8
	SMOVE  $1, #0
	VLOAD  $1, $0, #100
	VAV    $1, $0, $1, $1
	VAV    $1, $0, $1, $1
	VMV    $1, $0, $1, $1
	VSTORE $1, $0, #200
`,
}

// runTraced executes src on a fresh default machine with the given
// tracer attached.
func runTraced(t *testing.T, src string, tr trace.Tracer) Stats {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m := mustNew(t, DefaultConfig())
	for _, c := range p.Data {
		if err := m.WriteMainNums(c.Addr, c.Values); err != nil {
			t.Fatal(err)
		}
	}
	m.SetTracer(tr)
	m.LoadProgram(p.Instructions)
	stats, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// statsRecorder is a minimal tracer capturing the stream's aggregates.
type statsRecorder struct {
	begun   bool
	insts   int64
	gapSum  int64
	attrSum int64
	total   int64
}

func (r *statsRecorder) BeginRun(meta trace.RunMeta) { r.begun = true }
func (r *statsRecorder) Instruction(ev *trace.InstEvent) {
	r.insts++
	r.gapSum += ev.Gap
	for _, v := range ev.Attr {
		r.attrSum += v
	}
}
func (r *statsRecorder) BankConflict(spad string, bank int, extraCycles, atCycle int64) {}
func (r *statsRecorder) EndRun(totalCycles int64)                                       { r.total = totalCycles }
func (r *statsRecorder) Fault(kind string, pc int, atCycle int64)                       {}

// TestTracedRunBitIdentical is the tracer contract: attaching any
// tracer must not change a single statistic of the run.
func TestTracedRunBitIdentical(t *testing.T) {
	for name, src := range traceTestPrograms {
		t.Run(name, func(t *testing.T) {
			plain := runTraced(t, src, nil)
			rec := &statsRecorder{}
			traced := runTraced(t, src, rec)
			if plain != traced {
				t.Errorf("traced run diverged:\nuntraced %+v\ntraced   %+v", plain, traced)
			}
			if !rec.begun || rec.total != plain.Cycles || rec.insts != plain.Instructions {
				t.Errorf("stream saw begun=%v total=%d insts=%d, stats %d/%d",
					rec.begun, rec.total, rec.insts, plain.Cycles, plain.Instructions)
			}
			if rec.gapSum != plain.Cycles || rec.attrSum != plain.Cycles {
				t.Errorf("commit windows sum to gap=%d attr=%d, want %d",
					rec.gapSum, rec.attrSum, plain.Cycles)
			}
		})
	}
}

// TestStallAttributionConsistency checks the CPI-stack invariant across
// programs and machine shapes: every cycle attributed to exactly one
// cause.
func TestStallAttributionConsistency(t *testing.T) {
	shrunk := DefaultConfig()
	shrunk.ROBDepth = 2
	shrunk.MemQueueDepth = 2
	shrunk.IssueQueueDepth = 2
	for name, src := range traceTestPrograms {
		for _, cfg := range []struct {
			label string
			cfg   Config
		}{{"default", DefaultConfig()}, {"tiny-queues", shrunk}} {
			t.Run(name+"/"+cfg.label, func(t *testing.T) {
				p, err := asm.Assemble(src)
				if err != nil {
					t.Fatal(err)
				}
				m := mustNew(t, cfg.cfg)
				for _, c := range p.Data {
					if err := m.WriteMainNums(c.Addr, c.Values); err != nil {
						t.Fatal(err)
					}
				}
				m.LoadProgram(p.Instructions)
				stats, err := m.Run()
				if err != nil {
					t.Fatal(err)
				}
				if err := stats.CheckConsistency(); err != nil {
					t.Error(err)
				}
				bd := stats.Stalls
				if got := bd.Sum(); got != stats.Cycles {
					t.Errorf("breakdown sums to %d, want %d", got, stats.Cycles)
				}
			})
		}
	}
}

func TestCheckConsistencyDetectsCorruption(t *testing.T) {
	stats := runTraced(t, traceTestPrograms["mlp-layer"], nil)
	if err := stats.CheckConsistency(); err != nil {
		t.Fatalf("healthy run: %v", err)
	}
	bad := stats
	bad.Stalls[trace.CauseCompute]++
	if err := bad.CheckConsistency(); err == nil {
		t.Error("inflated stall bucket not detected")
	}
	bad = stats
	bad.Stalls[trace.CauseMemDep] = -1
	if err := bad.CheckConsistency(); err == nil {
		t.Error("negative stall bucket not detected")
	}
	bad = stats
	bad.VectorBusyCycles = bad.Cycles + 1
	if err := bad.CheckConsistency(); err == nil {
		t.Error("impossible busy counter not detected")
	}
	bad = stats
	bad.BankConflictCycles = -3
	if err := bad.CheckConsistency(); err == nil {
		t.Error("negative bank-conflict counter not detected")
	}
}

// TestNilTracerZeroAllocs pins the untraced hot path: after warm-up,
// re-loading and re-running a program on the same machine must not
// allocate at all, tracing plumbing included. The program is decoded
// once, the way a bench suite shares it: LoadProgram pays its decode
// (three allocations) on every call.
func TestNilTracerZeroAllocs(t *testing.T) {
	p, err := asm.Assemble(traceTestPrograms["mlp-layer"])
	if err != nil {
		t.Fatal(err)
	}
	dp, err := Predecode(p.Instructions)
	if err != nil {
		t.Fatal(err)
	}
	m := mustNew(t, DefaultConfig())
	for _, c := range p.Data {
		if err := m.WriteMainNums(c.Addr, c.Values); err != nil {
			t.Fatal(err)
		}
	}
	run := func() {
		m.Reset()
		m.LoadDecoded(dp)
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the operand buffers
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Errorf("untraced run allocates %.1f objects per run, want 0", allocs)
	}
}

// BenchmarkRunUntraced measures the nil-tracer hot path (the benchmark
// the 0 allocs/op acceptance criterion reads).
func BenchmarkRunUntraced(b *testing.B) {
	benchmarkRun(b, nil)
}

// BenchmarkRunTraced measures the same run with a null tracer attached,
// isolating the event-plumbing overhead.
func BenchmarkRunTraced(b *testing.B) {
	benchmarkRun(b, nullTracer{})
}

type nullTracer struct{}

func (nullTracer) BeginRun(trace.RunMeta)                 {}
func (nullTracer) Instruction(*trace.InstEvent)           {}
func (nullTracer) BankConflict(string, int, int64, int64) {}
func (nullTracer) EndRun(int64)                           {}
func (nullTracer) Fault(string, int, int64)               {}

func benchmarkRun(b *testing.B, tr trace.Tracer) {
	p, err := asm.Assemble(traceTestPrograms["mlp-layer"])
	if err != nil {
		b.Fatal(err)
	}
	dp, err := Predecode(p.Instructions)
	if err != nil {
		b.Fatal(err)
	}
	m := mustNew(b, DefaultConfig())
	for _, c := range p.Data {
		if err := m.WriteMainNums(c.Addr, c.Values); err != nil {
			b.Fatal(err)
		}
	}
	m.SetTracer(tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset()
		m.LoadDecoded(dp)
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
