package sim

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cambricon/internal/asm"
	"cambricon/internal/core"
	"cambricon/internal/fault"
	"cambricon/internal/fixed"
	"cambricon/internal/trace"
)

// faultVectorProgram streams four elements through the vector unit:
// load, add to itself, store. Instruction indices: 0-2 scalar moves,
// 3 VLOAD, 4 VAV, 5 VSTORE.
const faultVectorProgram = `
.data 100: 1, 2, 3, 4
	SMOVE  $0, #4
	SMOVE  $1, #0
	SMOVE  $2, #64
	VLOAD  $1, $0, #100
	VAV    $2, $0, $1, $1
	VSTORE $2, $0, #200
`

// runFault assembles src and runs it on a fresh default machine with
// the given injector and watchdog budget (0 disables the watchdog).
func runFault(t *testing.T, src string, inj fault.Injector, maxCycles int64) (*Machine, Stats, error) {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxCycles = maxCycles
	m := mustNew(t, cfg)
	for _, c := range p.Data {
		if err := m.WriteMainNums(c.Addr, c.Values); err != nil {
			t.Fatal(err)
		}
	}
	m.SetInjector(inj)
	m.LoadProgram(p.Instructions)
	stats, err := m.Run()
	return m, stats, err
}

// TestNilInjectorBitIdentical is the injector contract: a nil injector
// -- with or without the watchdog armed -- must not change a single
// statistic of the run relative to the plain machine.
func TestNilInjectorBitIdentical(t *testing.T) {
	for name, src := range traceTestPrograms {
		t.Run(name, func(t *testing.T) {
			_, plain, err := runFault(t, src, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			_, armed, err := runFault(t, src, nil, plain.Cycles*8+1024)
			if err != nil {
				t.Fatal(err)
			}
			if plain != armed {
				t.Errorf("watchdog-armed run diverged:\nplain %+v\narmed %+v", plain, armed)
			}
		})
	}
}

// TestGoldenCyclePins pins the absolute cycle and instruction counts of
// the reference programs so any timing drift from the fault plumbing
// (or anything else) is caught, not just relative divergence.
func TestGoldenCyclePins(t *testing.T) {
	pins := []struct {
		name                 string
		cycles, instructions int64
	}{
		{"mlp-layer", 96, 18},
		{"scalar-loop", 111, 32},
	}
	for _, pin := range pins {
		t.Run(pin.name, func(t *testing.T) {
			_, stats, err := runFault(t, traceTestPrograms[pin.name], nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Cycles != pin.cycles || stats.Instructions != pin.instructions {
				t.Errorf("got %d cycles / %d instructions, want %d / %d",
					stats.Cycles, stats.Instructions, pin.cycles, pin.instructions)
			}
		})
	}
}

// TestNilInjectorZeroAllocs pins the hot path with the watchdog armed
// and the injector nil: re-loading a shared decoded program and
// re-running on a warm machine must not allocate.
func TestNilInjectorZeroAllocs(t *testing.T) {
	p, err := asm.Assemble(traceTestPrograms["mlp-layer"])
	if err != nil {
		t.Fatal(err)
	}
	dp, err := Predecode(p.Instructions)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxCycles = 1 << 20
	m := mustNew(t, cfg)
	for _, c := range p.Data {
		if err := m.WriteMainNums(c.Addr, c.Values); err != nil {
			t.Fatal(err)
		}
	}
	m.SetInjector(nil)
	run := func() {
		m.Reset()
		m.LoadDecoded(dp)
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the operand buffers
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Errorf("nil-injector run allocates %.1f objects per run, want 0", allocs)
	}
}

func TestGPRBitFault(t *testing.T) {
	src := `
	SMOVE $1, #0
	SADD  $1, $1, #0
`
	// Flip bit 3 of $1 just before the SADD (instruction index 1).
	inj := fault.New(fault.Fault{Model: fault.ModelGPRBit, At: 1, Reg: 1, Bit: 3})
	m, stats, err := runFault(t, src, inj, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.GPR(1); got != 8 {
		t.Errorf("$1 = %d after bit-3 flip, want 8", got)
	}
	if stats.FaultsInjected != 1 {
		t.Errorf("FaultsInjected = %d, want 1", stats.FaultsInjected)
	}
}

func TestSpadBitFault(t *testing.T) {
	_, gm, _ := goldenVectorRun(t)
	// Flip bit 0 of vector-scratchpad word 0 just before the VAV reads
	// it (instruction index 4): both the sum and the stored output see
	// the corrupted element.
	inj := fault.New(fault.Fault{
		Model: fault.ModelSpadBit, At: 4,
		Space: fault.SpaceVector, Word: 0, Bit: 0,
	})
	m, stats, err := runFault(t, faultVectorProgram, inj, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.ReadMainNums(200, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Element 0 was 1.0 (raw 256); the flipped bit rides through the
	// add: (256^1)+( 256^1) = 514 instead of 512.
	if out[0] == gm[0] {
		t.Errorf("output[0] = %d unchanged by spad flip (golden %d)", out[0], gm[0])
	}
	if out[0] != gm[0]+2 {
		t.Errorf("output[0] = %d, want golden+2 = %d", out[0], gm[0]+2)
	}
	for i := 1; i < 4; i++ {
		if out[i] != gm[i] {
			t.Errorf("output[%d] = %d disturbed, want %d", i, out[i], gm[i])
		}
	}
	if stats.FaultsInjected != 1 {
		t.Errorf("FaultsInjected = %d, want 1", stats.FaultsInjected)
	}
}

// goldenVectorRun runs faultVectorProgram fault-free and returns the
// machine, the stored output and the stats.
func goldenVectorRun(t *testing.T) (*Machine, []fixed.Num, Stats) {
	t.Helper()
	m, stats, err := runFault(t, faultVectorProgram, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.ReadMainNums(200, 4)
	if err != nil {
		t.Fatal(err)
	}
	return m, out, stats
}

func TestFetchBitFaultDetected(t *testing.T) {
	// Flipping bit 63 pushes the opcode far outside the ISA: the
	// corrupted word must fail to decode and surface as a structured
	// runtime error, not a panic.
	inj := fault.New(fault.Fault{Model: fault.ModelFetchBit, At: 0, Bit: 63})
	_, stats, err := runFault(t, faultVectorProgram, inj, 0)
	if err == nil {
		t.Fatal("corrupted fetch not detected")
	}
	var re *RuntimeError
	if !errors.As(err, &re) {
		t.Fatalf("want RuntimeError, got %T: %v", err, err)
	}
	if stats.FaultsInjected != 1 {
		t.Errorf("FaultsInjected = %d, want 1", stats.FaultsInjected)
	}
}

// TestFetchBitFaultRunsCorruptedDecode: an instruction whose word the
// injector corrupts at fetch issues, executes and retires as the
// corrupted instruction, with that instruction's own operand roles. The
// faulted run must equal a fault-free run of the program with the
// instruction replaced statically by the corrupted decode. The flipped
// bit turns SADD's source $5, ready long before, into $4, which the VDOT
// just before it is still computing, so the corrupted SADD waits longer
// at issue and the cycles differ from the uncorrupted run's. A text
// trace of the faulted run must also match the swapped run's byte for
// byte: the trace shows the instruction that ran, not the program's.
func TestFetchBitFaultRunsCorruptedDecode(t *testing.T) {
	p := mustAssemble(t, `
.data 100: 1, 2, 3, 4, 5, 6, 7, 8
	SMOVE  $0, #8
	SMOVE  $1, #0
	SMOVE  $5, #3
	VLOAD  $1, $0, #100
	VDOT   $4, $0, $1, $1
	SADD   $6, $5, #1
	SSTORE $6, $1, #400
`)
	// Bit 43 is the low bit of the second register field: SADD's $5.
	const at, bit = 5, 43
	w, err := core.Encode(p.Instructions[at])
	if err != nil {
		t.Fatal(err)
	}
	corrupted, err := core.Decode(w ^ 1<<bit)
	if err != nil {
		t.Fatal(err)
	}
	if corrupted.Op != core.SADD || corrupted.R[1] != 4 {
		t.Fatalf("bit %d corrupts %v into %v, want SADD reading $4", bit, p.Instructions[at], corrupted)
	}
	swapped := slices.Clone(p.Instructions)
	swapped[at] = corrupted

	runProg := func(prog []core.Instruction, inj fault.Injector) (*Machine, Stats, string) {
		t.Helper()
		m := mustNew(t, DefaultConfig())
		for _, c := range p.Data {
			if err := m.WriteMainNums(c.Addr, c.Values); err != nil {
				t.Fatal(err)
			}
		}
		var text strings.Builder
		m.SetTracer(trace.NewText(&text))
		m.SetInjector(inj)
		m.LoadProgram(prog)
		st, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return m, st, text.String()
	}
	_, clean, _ := runProg(p.Instructions, nil)
	wantM, want, wantText := runProg(swapped, nil)
	gotM, got, gotText := runProg(p.Instructions, fault.New(fault.Fault{Model: fault.ModelFetchBit, At: at, Bit: bit}))

	if want.Cycles == clean.Cycles {
		t.Fatalf("corrupting the source register left the cycles at %d; the site does not test operand roles", clean.Cycles)
	}
	if got.FaultsInjected != 1 {
		t.Fatalf("FaultsInjected = %d, want 1", got.FaultsInjected)
	}
	got.FaultsInjected = 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fetch-corrupted run diverges from the statically swapped program:\nfaulted %+v\nswapped %+v", got, want)
	}
	for r := uint8(0); r < core.NumGPRs; r++ {
		if gotM.GPR(r) != wantM.GPR(r) {
			t.Fatalf("$%d = %d, swapped program %d", r, int32(gotM.GPR(r)), int32(wantM.GPR(r)))
		}
	}
	if gotText != wantText {
		t.Fatalf("text trace of the faulted run:\n%s\nswapped program's:\n%s", gotText, wantText)
	}
	if lines := strings.Split(gotText, "\n"); len(lines) <= at || !strings.HasSuffix(lines[at], "SADD $6, $4, #1") {
		t.Fatalf("faulted trace does not show the corrupted SADD $6, $4, #1 on line %d:\n%s", at, gotText)
	}
}

func TestDMABitFault(t *testing.T) {
	_, gm, _ := goldenVectorRun(t)
	// Corrupt byte 2 (element 1, low byte) of the first DMA transfer:
	// the VLOAD payload arrives damaged, so the doubled output differs.
	inj := fault.New(fault.Fault{Model: fault.ModelDMABit, At: 0, Byte: 2, Bit: 0})
	m, stats, err := runFault(t, faultVectorProgram, inj, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.ReadMainNums(200, 4)
	if err != nil {
		t.Fatal(err)
	}
	if out[1] == gm[1] {
		t.Errorf("output[1] = %d unchanged by DMA corruption", out[1])
	}
	if out[0] != gm[0] || out[2] != gm[2] || out[3] != gm[3] {
		t.Errorf("untouched elements disturbed: got %v, golden %v", out, gm)
	}
	if stats.FaultsInjected == 0 {
		t.Error("FaultsInjected = 0, want > 0")
	}
}

// TestDMABitFlipsDestination pins the dma-bit fault on transfers that
// copy straight from source to destination: on a VLOAD and on a VSTORE,
// the injector flips exactly bit Bit of byte Byte % len of the
// destination region and leaves the source as it was, and restoring the
// pre-run snapshot reverts the flip (the destination pages were marked
// dirty before the flip).
func TestDMABitFlipsDestination(t *testing.T) {
	const (
		n       = 10 // elements per transfer
		srcMain = 100
		spad    = 64
		dstMain = 8192
	)
	src := `
.data 100: 1, 2, 3, 4, 5, 6, 7, 8, 9, 10
	SMOVE  $0, #10
	SMOVE  $1, #64
	VLOAD  $1, $0, #100
	VSTORE $1, $0, #8192
`
	p := mustAssemble(t, src)
	m := mustNew(t, DefaultConfig())
	for _, c := range p.Data {
		if err := m.WriteMainNums(c.Addr, c.Values); err != nil {
			t.Fatal(err)
		}
	}
	m.LoadProgram(p.Instructions)
	pre := m.Snapshot()
	// regions reads the three transfer regions: the VLOAD's source and
	// destination, and the VSTORE's destination.
	regions := func() (loadSrc, padRegion, storeDst []byte) {
		t.Helper()
		var err [3]error
		loadSrc, err[0] = m.main.BytesView(srcMain, 2*n)
		padRegion, err[1] = m.vspad.BytesView(spad, 2*n)
		storeDst, err[2] = m.main.BytesView(dstMain, 2*n)
		for _, e := range err {
			if e != nil {
				t.Fatal(e)
			}
		}
		return bytes.Clone(loadSrc), bytes.Clone(padRegion), bytes.Clone(storeDst)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	goldSrc, goldPad, goldDst := regions()

	const byteSel, bit = 3*2*n + 7, 5 // byte 7 of the 20-byte payload
	for _, c := range []struct {
		name string
		at   int64
	}{{"VLOAD", 2}, {"VSTORE", 3}} {
		t.Run(c.name, func(t *testing.T) {
			if err := m.Restore(pre); err != nil {
				t.Fatal(err)
			}
			m.SetInjector(fault.New(fault.Fault{Model: fault.ModelDMABit, At: c.at, Byte: byteSel, Bit: bit}))
			st, err := m.Run()
			m.SetInjector(nil)
			if err != nil {
				t.Fatal(err)
			}
			if st.FaultsInjected != 1 {
				t.Fatalf("FaultsInjected = %d, want 1", st.FaultsInjected)
			}
			loadSrc, pad, storeDst := regions()
			flipped := func(golden []byte) []byte {
				b := bytes.Clone(golden)
				b[byteSel%len(b)] ^= 1 << bit
				return b
			}
			// A VLOAD flip reaches main memory again through the VSTORE,
			// which copies the corrupted pad region.
			wantPad, wantDst := goldPad, flipped(goldDst)
			if c.name == "VLOAD" {
				wantPad = flipped(goldPad)
			}
			if !bytes.Equal(loadSrc, goldSrc) {
				t.Errorf("VLOAD source = %v, want it untouched: %v", loadSrc, goldSrc)
			}
			if !bytes.Equal(pad, wantPad) {
				t.Errorf("pad region = %v, want %v", pad, wantPad)
			}
			if !bytes.Equal(storeDst, wantDst) {
				t.Errorf("VSTORE destination = %v, want %v", storeDst, wantDst)
			}

			if err := m.Restore(pre); err != nil {
				t.Fatal(err)
			}
			after := m.Snapshot()
			for sp, name := range MemoryNames {
				if pages := DiffPages(pre, after, sp); len(pages) != 0 {
					t.Errorf("%s: restoring the pre-run snapshot left pages %v different", name, pages)
				}
			}
		})
	}
}

func TestStuckLaneFault(t *testing.T) {
	_, gm, _ := goldenVectorRun(t)
	// Stick bit 0 of vector lane 0 at 1: every element produced by
	// lane 0 (stride VectorLanes, here just element 0) has the bit
	// forced in the VAV output.
	inj := fault.New(fault.Fault{
		Model: fault.ModelStuckLane,
		Unit:  fault.UnitVector, Lane: 0, Bit: 0, Val: 1,
	})
	m, stats, err := runFault(t, faultVectorProgram, inj, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.ReadMainNums(200, 4)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != gm[0]|1 {
		t.Errorf("output[0] = %d, want golden|1 = %d", out[0], gm[0]|1)
	}
	lanes := DefaultConfig().VectorLanes
	for i := 1; i < 4 && i < lanes; i++ {
		if out[i] != gm[i] {
			t.Errorf("output[%d] = %d on a healthy lane, want %d", i, out[i], gm[i])
		}
	}
	if stats.FaultsInjected == 0 {
		t.Error("FaultsInjected = 0, want > 0")
	}
}

// TestWatchdogFiresOnDeadlock pins the watchdog semantics: a program
// that never terminates must end with a WatchdogError naming the limit
// and the stalled instruction's pipeline stage -- not hang.
func TestWatchdogFiresOnDeadlock(t *testing.T) {
	src := `
	SMOVE $1, #1
spin:	JUMP  #spin
`
	_, stats, err := runFault(t, src, nil, 50)
	if err == nil {
		t.Fatal("deadlocked program completed")
	}
	var we *WatchdogError
	if !errors.As(err, &we) {
		t.Fatalf("want WatchdogError, got %T: %v", err, err)
	}
	if we.Limit != 50 {
		t.Errorf("Limit = %d, want 50", we.Limit)
	}
	if we.Stage == "" {
		t.Error("watchdog diagnostic names no pipeline stage")
	}
	if !strings.Contains(we.Error(), "watchdog") || !strings.Contains(we.Error(), we.Stage) {
		t.Errorf("diagnostic %q does not name the watchdog and stage", we.Error())
	}
	if stats.Cycles <= 50 {
		t.Errorf("stats.Cycles = %d, want > limit at the firing point", stats.Cycles)
	}
}

// TestWatchdogClearsOnCompletion: a generous budget must not disturb a
// healthy run (covered bit-wise by TestNilInjectorBitIdentical; this
// pins the non-error path explicitly).
func TestWatchdogClearsOnCompletion(t *testing.T) {
	_, stats, err := runFault(t, faultVectorProgram, nil, 1<<20)
	if err != nil {
		t.Fatalf("healthy run tripped the watchdog: %v", err)
	}
	if stats.Instructions != 6 {
		t.Errorf("Instructions = %d, want 6", stats.Instructions)
	}
}

func TestRunContextCancellation(t *testing.T) {
	p, err := asm.Assemble(faultVectorProgram)
	if err != nil {
		t.Fatal(err)
	}
	m := mustNew(t, DefaultConfig())
	for _, c := range p.Data {
		if err := m.WriteMainNums(c.Addr, c.Values); err != nil {
			t.Fatal(err)
		}
	}
	m.LoadProgram(p.Instructions)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stats, err := m.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext on canceled context = %v, want context.Canceled", err)
	}
	if stats.Instructions != 0 {
		t.Errorf("canceled-before-start run committed %d instructions", stats.Instructions)
	}
}

// TestRunContextCancelMidRun cancels while a long loop is executing:
// the run must stop at a poll point with partial statistics.
func TestRunContextCancelMidRun(t *testing.T) {
	src := `
	SMOVE $1, #100000
spin:	SADD  $1, $1, #-1
	CB    #spin, $1
`
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m := mustNew(t, DefaultConfig())
	m.LoadProgram(p.Instructions)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { cancel(); close(done) }()
	<-done
	stats, err := m.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
	if stats.Instructions >= 200001 {
		t.Errorf("run completed all %d instructions despite cancellation", stats.Instructions)
	}
}

// BenchmarkRunNilInjector measures the hot path with the injector nil
// and the watchdog armed — the configuration campaigns use for golden
// runs, and the benchmark behind the 0 allocs/op acceptance criterion
// (compare against BenchmarkRunUntraced for the plumbing cost).
func BenchmarkRunNilInjector(b *testing.B) {
	p, err := asm.Assemble(traceTestPrograms["mlp-layer"])
	if err != nil {
		b.Fatal(err)
	}
	dp, err := Predecode(p.Instructions)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxCycles = 1 << 20
	m := mustNew(b, cfg)
	for _, c := range p.Data {
		if err := m.WriteMainNums(c.Addr, c.Values); err != nil {
			b.Fatal(err)
		}
	}
	m.SetInjector(nil)
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

// TestSingleInjectorReuse checks BeginRun re-arms a one-shot fault, so
// one Single can drive a whole campaign of runs on a reused machine.
func TestSingleInjectorReuse(t *testing.T) {
	src := `
	SMOVE $1, #0
	SADD  $1, $1, #0
`
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m := mustNew(t, DefaultConfig())
	inj := fault.New(fault.Fault{Model: fault.ModelGPRBit, At: 1, Reg: 1, Bit: 0})
	m.SetInjector(inj)
	for round := 0; round < 3; round++ {
		m.Reset()
		m.LoadProgram(p.Instructions)
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if got := m.GPR(1); got != 1 {
			t.Fatalf("round %d: $1 = %d, want 1 (fault did not re-arm)", round, got)
		}
	}
}
