package asm

import (
	"fmt"
	"strings"

	"cambricon/internal/core"
)

// Arg is one operand in Builder emissions.
type Arg struct {
	text string
}

// R names a GPR operand.
func R(n uint8) Arg { return Arg{text: fmt.Sprintf("$%d", n)} }

// Imm is a numeric immediate operand.
func Imm(v int32) Arg { return Arg{text: fmt.Sprintf("#%d", v)} }

// Lbl is a label-reference operand (branch targets).
func Lbl(name string) Arg { return Arg{text: "#" + name} }

// Builder programmatically emits Cambricon assembly source. It is the
// back end of internal/codegen: generated programs remain human-readable
// text (so the Fig. 10 "code length" metric is literally the listing
// length) and go through the same assembler as hand-written code.
type Builder struct {
	lines     []string
	nextLabel int
}

// Op emits one instruction.
func (b *Builder) Op(op core.Opcode, args ...Arg) {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = a.text
	}
	b.lines = append(b.lines, "\t"+op.String()+" "+strings.Join(parts, ", "))
}

// Opc emits one instruction with a trailing comment.
func (b *Builder) Opc(op core.Opcode, comment string, args ...Arg) {
	b.Op(op, args...)
	b.lines[len(b.lines)-1] += " // " + comment
}

// Comment emits a standalone comment line.
func (b *Builder) Comment(format string, args ...any) {
	b.lines = append(b.lines, "\t// "+fmt.Sprintf(format, args...))
}

// Label places a label at the current position.
func (b *Builder) Label(name string) {
	b.lines = append(b.lines, name+":")
}

// NewLabel reserves a fresh unique label name with the given prefix. The
// label must still be placed with Label.
func (b *Builder) NewLabel(prefix string) string {
	b.nextLabel++
	return fmt.Sprintf("%s_%d", prefix, b.nextLabel)
}

// Source returns the accumulated assembly text.
func (b *Builder) Source() string { return strings.Join(b.lines, "\n") + "\n" }
