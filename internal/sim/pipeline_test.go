package sim

import (
	"math/rand"
	"strings"
	"testing"

	"cambricon/internal/asm"
	"cambricon/internal/mem"
	"cambricon/internal/trace"
)

// mixedFUProgram alternates independent vector and matrix operations, the
// pattern that exposes memory-queue capacity: with a deep queue the two
// functional units overlap, with a single-entry queue each memory
// instruction must retire before the next can issue.
func mixedFUProgram() string {
	var b strings.Builder
	b.WriteString(`
	SMOVE $1, #256
	SMOVE $2, #1024
	SMOVE $10, #0
	SMOVE $11, #2048
	SMOVE $20, #0
	SMOVE $21, #8192
`)
	for i := 0; i < 16; i++ {
		b.WriteString("\tRV    $10, $1\n")
		b.WriteString("\tMMS   $21, $2, $20, #128\n")
	}
	return b.String()
}

func runWith(t *testing.T, cfg Config, src string) Stats {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m := mustNew(t, cfg)
	m.LoadProgram(p.Instructions)
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestMemQueueCapacityLimitsOverlap(t *testing.T) {
	deep := DefaultConfig()
	shallow := DefaultConfig()
	shallow.MemQueueDepth = 1
	src := mixedFUProgram()
	sd := runWith(t, deep, src)
	ss := runWith(t, shallow, src)
	if ss.Cycles <= sd.Cycles {
		t.Errorf("single-entry memory queue (%d cycles) should be slower than 32-entry (%d)",
			ss.Cycles, sd.Cycles)
	}
	if ss.MemQueueFullStallCycles == 0 {
		t.Error("shallow queue should report memory-queue-full stalls")
	}
	if sd.MemQueueFullStallCycles != 0 {
		t.Errorf("deep queue should not fill on 32 in-flight ops, got %d stall cycles",
			sd.MemQueueFullStallCycles)
	}
}

// randomEffect is a seeded random instruction effect for driving the
// timing model directly: any functional unit, 1 to 300 execution
// cycles, up to four accesses of 0 to 256 bytes over the three spaces in
// a 1 KiB range with random write flags, and now and then a taken branch.
func randomEffect(rng *rand.Rand) effect {
	var e effect
	e.fu = fuKind(rng.Intn(4))
	e.execCycles = 1 + rng.Int63n(300)
	for k := rng.Intn(5); k > 0; k-- {
		e.touch(space(rng.Intn(3)), rng.Intn(1024), rng.Intn(257), rng.Intn(2) == 0)
	}
	e.branchTaken = rng.Intn(8) == 0
	return e
}

// TestMemQueueScanMatchesFullScan pins the memory-queue dependence scan,
// which walks back from the newest entry, stops early and filters
// entries by their access masks, to the rule it implements: a memory
// instruction leaves the queue at the largest done time among the live
// entries that conflict with it (accessSet.conflicts), or at its entry
// time when none is later.
// Random streams on shallow queues wrap the ring on nearly every
// instruction, and halfway through, the pipeline is captured and the
// run continues on a fresh pipeline restored from it.
func TestMemQueueScanMatchesFullScan(t *testing.T) {
	const n = 20000
	for _, depth := range []int{1, 2, 3, 32} {
		for _, width := range []int{1, 2} {
			cfg := DefaultConfig()
			cfg.MemQueueDepth, cfg.IssueWidth = depth, width
			if err := cfg.validate(); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(10*depth + width)))
			var stats Stats
			p := &pipeline{}
			p.init(&cfg, &stats)
			var live []mqEntry
			waits := 0
			for i := 0; i < n; i++ {
				if i == n/2 {
					snap := p.capture()
					fresh := &pipeline{cfg: &cfg, stats: &stats}
					fresh.restore(&snap)
					p = fresh
				}
				e := randomEffect(rng)
				src := []uint8{uint8(rng.Intn(4))}
				dst, hasDst := uint8(rng.Intn(4)), rng.Intn(2) == 0
				// MQPos is MemCount modulo the ring size, so until the
				// ring wraps the live entries are its first MemCount
				// slots, and after that all of them.
				live = append(live[:0], p.mq[:min(p.MemCount, int64(len(p.mq)))]...)
				var ev trace.InstEvent
				p.advanceWith(src, dst, hasDst, &e, &ev)
				if e.fu == fuScalar {
					continue
				}
				want := ev.Issue + 2
				for k := range live {
					if ent := &live[k]; ent.done > want && ent.acc.conflicts(&e.acc) {
						want = ent.done
					}
				}
				if got := ev.Issue + 2 + ev.MemDepWait; got != want {
					t.Fatalf("depth %d width %d, instruction %d: dependence wait ends at %d, full scan says %d",
						depth, width, i, got, want)
				}
				if ev.MemDepWait > 0 {
					waits++
				}
			}
			// A one-entry queue issues each memory instruction only after
			// the previous one retires, so it never waits on a dependence.
			if depth > 1 && waits == 0 {
				t.Errorf("depth %d width %d: no memory instruction waited on a dependence", depth, width)
			}
		}
	}
}

// TestPipeStateIgnoresStaleAccesses pins that an instruction's unused
// access slots never reach the timing state that equal compares: two
// pipelines fed the same effects, one of them with garbage in every
// unused slot, stay equal, so a convergence proof never fails on bytes
// the dependence scan does not read.
func TestPipeStateIgnoresStaleAccesses(t *testing.T) {
	cfg := DefaultConfig()
	var sa, sb Stats
	a, b := &pipeline{}, &pipeline{}
	a.init(&cfg, &sa)
	b.init(&cfg, &sb)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		e := randomEffect(rng)
		stale := e
		for k := int(e.acc.n); k < len(e.acc.regs); k++ {
			stale.acc.regs[k] = access{reg: mem.Region{Addr: i, N: k + 1}, sp: spaceVec, write: true}
		}
		a.advanceWith(nil, 0, false, &e, nil)
		b.advanceWith(nil, 0, false, &stale, nil)
		if !a.equal(&b.pipeState) {
			t.Fatalf("instruction %d: the states differ only in unused access slots, and equal says they differ", i)
		}
	}
}

func TestROBCapacityLimitsRunahead(t *testing.T) {
	// One long matrix op followed by many independent scalars: scalars
	// execute quickly but cannot commit past the matrix op; a tiny ROB
	// throttles issue.
	var b strings.Builder
	b.WriteString(`
	SMOVE $1, #256
	SMOVE $10, #0
	SMOVE $20, #0
	SMOVE $21, #8192
	RV    $10, $1
	MMV   $21, $1, $20, $10, $1
`)
	for i := 0; i < 64; i++ {
		b.WriteString("\tSADD $30, $30, #1\n")
	}
	src := b.String()
	wide := DefaultConfig()
	tiny := DefaultConfig()
	tiny.ROBDepth = 2
	sw := runWith(t, wide, src)
	st := runWith(t, tiny, src)
	if st.Cycles <= sw.Cycles {
		t.Errorf("2-entry ROB (%d cycles) should be slower than 64-entry (%d)",
			st.Cycles, sw.Cycles)
	}
	if st.ROBFullStallCycles == 0 {
		t.Error("tiny ROB should report full stalls")
	}
}

func TestIssueQueueDepthBoundsFetch(t *testing.T) {
	// The issue queue bounds fetch-ahead; with a single-entry queue the
	// front end cannot hide the decode stage behind issue stalls.
	src := mixedFUProgram()
	deep := DefaultConfig()
	shallow := DefaultConfig()
	shallow.IssueQueueDepth = 1
	sd := runWith(t, deep, src)
	ss := runWith(t, shallow, src)
	if ss.Cycles < sd.Cycles {
		t.Errorf("1-entry issue queue (%d) should not beat 24-entry (%d)", ss.Cycles, sd.Cycles)
	}
}

func TestBranchPenaltyConfigurable(t *testing.T) {
	loop := `
	SMOVE $1, #64
t:	SADD  $1, $1, #-1
	CB    #t, $1
`
	fast := DefaultConfig()
	fast.BranchPenaltyCycles = 0
	slow := DefaultConfig()
	slow.BranchPenaltyCycles = 16
	sf := runWith(t, fast, loop)
	ss := runWith(t, slow, loop)
	if ss.Cycles <= sf.Cycles {
		t.Errorf("16-cycle redirect (%d) should cost more than 0-cycle (%d)", ss.Cycles, sf.Cycles)
	}
}

func TestCordicCostConfigurable(t *testing.T) {
	src := `
	SMOVE $1, #4096
	SMOVE $10, #0
	SMOVE $11, #8192
	RV    $10, $1
	VEXP  $11, $1, $10
`
	cheap := DefaultConfig()
	cheap.CordicBeatCycles = 1
	costly := DefaultConfig()
	costly.CordicBeatCycles = 8
	sc := runWith(t, cheap, src)
	se := runWith(t, costly, src)
	if se.Cycles <= sc.Cycles {
		t.Errorf("8-cycle CORDIC beats (%d) should cost more than 1-cycle (%d)", se.Cycles, sc.Cycles)
	}
}

func TestConfigValidationFillsDefaults(t *testing.T) {
	var cfg Config
	cfg.VectorSpadBytes = 1024
	cfg.MatrixSpadBytes = 1024
	cfg.BankBytes = 64
	cfg.SpadBanks = 1
	cfg.MainMemBytes = 4096
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := m.Config()
	if got.IssueWidth < 1 || got.ROBDepth < 1 || got.ClockHz <= 0 ||
		got.MaxDynamicInstructions <= 0 {
		t.Errorf("validate left zero fields: %+v", got)
	}
	// The degenerate machine still runs a trivial program.
	p := mustAssemble(t, "\tSMOVE $1, #1\n")
	m.LoadProgram(p.Instructions)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
}
