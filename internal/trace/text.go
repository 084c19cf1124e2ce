package trace

import (
	"fmt"
	"io"
)

// Text is a Tracer that writes one line per committed instruction: its
// dynamic index, commit cycle, program counter and disassembly, with
// taken branches annotated by their target. It is the software analogue
// of the paper's VCD-based inspection flow (camsim -itrace). Every other
// event writes nothing. Write errors are dropped: a trace observes the
// run and must not change how it ends.
type Text struct {
	w io.Writer
}

// NewText builds a text trace writing to w.
func NewText(w io.Writer) *Text { return &Text{w: w} }

// Instruction writes the instruction's trace line.
func (t *Text) Instruction(ev *InstEvent) {
	note := ""
	if ev.BranchTaken {
		note = fmt.Sprintf("  ; taken -> %d", ev.Target)
	}
	fmt.Fprintf(t.w, "%8d  cyc=%-8d pc=%-6d %s%s\n", ev.Index, ev.Commit, ev.PC, ev.Inst, note)
}

func (*Text) BeginRun(RunMeta)                       {}
func (*Text) BankConflict(string, int, int64, int64) {}
func (*Text) EndRun(int64)                           {}
func (*Text) Fault(string, int, int64)               {}
