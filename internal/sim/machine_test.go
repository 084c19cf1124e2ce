package sim

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"cambricon/internal/core"
	"cambricon/internal/trace"
)

// TestTraceOutput pins the text trace sink line by line — dynamic
// index, commit cycle, pc, disassembly and the taken-branch note — and
// that detaching the tracer stops it.
func TestTraceOutput(t *testing.T) {
	p := mustAssemble(t, `
	SMOVE $1, #2
top:	SADD  $1, $1, #-1
	CB    #top, $1
`)
	m := mustNew(t, DefaultConfig())
	var buf strings.Builder
	m.SetTracer(trace.NewText(&buf))
	m.LoadProgram(p.Instructions)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	const want = "" +
		"       0  cyc=4        pc=0      SMOVE $1, #2\n" +
		"       1  cyc=7        pc=1      SADD $1, $1, #-1\n" +
		"       2  cyc=10       pc=2      CB $1, #-1  ; taken -> 1\n" +
		"       3  cyc=17       pc=1      SADD $1, $1, #-1\n" +
		"       4  cyc=20       pc=2      CB $1, #-1\n"
	if got := buf.String(); got != want {
		t.Fatalf("trace:\n%s\nwant:\n%s", got, want)
	}
	// Disabling tracing stops output.
	m.SetTracer(nil)
	m.Reset()
	m.LoadProgram(p.Instructions)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != want {
		t.Fatalf("trace grew after SetTracer(nil):\n%s", got)
	}
}

func TestOpcodeHistogram(t *testing.T) {
	p := mustAssemble(t, `
	SMOVE $1, #5
top:	SADD  $1, $1, #-1
	CB    #top, $1
`)
	m := mustNew(t, DefaultConfig())
	m.LoadProgram(p.Instructions)
	stats, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.ByOpcode[core.SADD] != 5 {
		t.Errorf("SADD count = %d, want 5", stats.ByOpcode[core.SADD])
	}
	if stats.ByOpcode[core.CB] != 5 {
		t.Errorf("CB count = %d, want 5", stats.ByOpcode[core.CB])
	}
	top := stats.TopOpcodes(2)
	if len(top) != 2 {
		t.Fatalf("TopOpcodes returned %d entries", len(top))
	}
	if top[0].Count < top[1].Count {
		t.Error("TopOpcodes not sorted")
	}
	all := stats.TopOpcodes(0)
	if len(all) != 3 {
		t.Errorf("expected 3 distinct opcodes, got %d", len(all))
	}
}

// TestLoadProgramRejectsInvalidInstruction pins load-time validation:
// LoadProgram accepts a handcrafted program with an invalid instruction
// at pc k without panicking, and every Run of it fails — before anything
// executes — with a *RuntimeError naming pc k, that instruction, and its
// Validate error.
func TestLoadProgramRejectsInvalidInstruction(t *testing.T) {
	invalid := []core.Instruction{
		core.NewRI(core.SADD, 1, 70, 1),                           // register out of range
		{Op: core.Opcode(255)},                                    // undefined opcode
		core.NewRI(core.VAV, 3, 1, 2, 3, 4),                       // immediate on a register-only format
		{Op: core.JUMP, Imm: 3, TailImm: true, R: [5]uint8{0, 9}}, // stray register field
	}
	for _, k := range []int{0, 2, 4} {
		for _, bad := range invalid {
			verr := bad.Validate()
			if verr == nil {
				t.Fatalf("%v validates; the test needs an invalid instruction", bad)
			}
			prog := []core.Instruction{
				core.NewRI(core.SMOVE, 5, 1),
				core.NewRI(core.SMOVE, 6, 2),
				core.NewRI(core.SMOVE, 7, 3),
				core.NewRI(core.SMOVE, 8, 4),
				core.NewRI(core.SMOVE, 9, 5),
			}
			prog[k] = bad
			m := mustNew(t, DefaultConfig())
			m.LoadProgram(prog)
			for run := 0; run < 2; run++ {
				st, err := m.Run()
				var re *RuntimeError
				if !errors.As(err, &re) {
					t.Fatalf("pc %d, %v: Run returned %v, want a *RuntimeError", k, bad, err)
				}
				if re.PC != k || re.Inst != bad || re.Err.Error() != verr.Error() {
					t.Fatalf("pc %d: got %+v, want pc=%d inst=%v err=%q", k, re, k, bad, verr)
				}
				if st.Instructions != 0 || m.GPR(1) != 0 {
					t.Fatalf("pc %d: %d instructions executed ($1=%d) before the validation error",
						k, st.Instructions, m.GPR(1))
				}
			}
		}
	}
}

// TestRunWithoutProgram: a machine with no program loaded — fresh, or
// restored to a pristine snapshot after running one — executes nothing
// and returns zero statistics without error.
func TestRunWithoutProgram(t *testing.T) {
	cfg := DefaultConfig()
	m := mustNew(t, cfg)
	if st, err := m.Run(); err != nil || !reflect.DeepEqual(st, Stats{}) {
		t.Fatalf("fresh machine: Run = %+v, %v; want zero stats, nil", st, err)
	}
	m.LoadProgram(mustAssemble(t, "\tSMOVE $1, #5\n\tSADD $1, $1, #2\n").Instructions)
	if st, err := m.Run(); err != nil || st.Instructions != 2 {
		t.Fatalf("loaded program: Run = %+v, %v", st, err)
	}
	pristine, err := PristineSnapshot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Restore(pristine); err != nil {
		t.Fatal(err)
	}
	if st, err := m.Run(); err != nil || !reflect.DeepEqual(st, Stats{}) {
		t.Fatalf("pristine restore: Run = %+v, %v; want zero stats, nil", st, err)
	}
}
