package core

import (
	"strings"
	"testing"
)

func TestInstructionCountIs43(t *testing.T) {
	// Section V-B1: "Cambricon defines a total of 43 64-bit
	// scalar/control/vector/matrix instructions".
	if NumInstructions != 43 {
		t.Fatalf("NumInstructions = %d, want 43", NumInstructions)
	}
	if got := len(Opcodes()); got != 43 {
		t.Fatalf("len(Opcodes()) = %d, want 43", got)
	}
}

func TestOpcodeNamesUniqueAndResolvable(t *testing.T) {
	seen := map[string]Opcode{}
	for _, op := range Opcodes() {
		name := op.String()
		if name == "" || strings.HasPrefix(name, "Opcode(") {
			t.Errorf("opcode %d has no mnemonic", op)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("mnemonic %q used by both %d and %d", name, prev, op)
		}
		seen[name] = op
		got, ok := ByName(name)
		if !ok || got != op {
			t.Errorf("ByName(%q) = %v, %v; want %v", name, got, ok, op)
		}
	}
	if _, ok := ByName("NOPE"); ok {
		t.Error("ByName should reject unknown mnemonics")
	}
}

func TestEveryOpcodeHasFormatAndRoles(t *testing.T) {
	for _, op := range Opcodes() {
		f := op.Format()
		if f.Regs < 0 || f.Regs > 5 {
			t.Errorf("%v: bad reg count %d", op, f.Regs)
		}
		if f.Operands() > 6 {
			t.Errorf("%v: too many operands", op)
		}
		roles := op.Roles()
		if len(roles) != f.Operands() {
			t.Errorf("%v: %d roles but %d operands", op, len(roles), f.Operands())
		}
		// Encoding constraint: formats carrying an immediate must leave
		// bits [31:0] free, i.e. at most 4 register fields (bit 31 is the
		// last bit of reg field r3).
		if f.Tail != TailNone && f.Regs > 3 {
			t.Errorf("%v: immediate formats support at most 3 fixed registers", op)
		}
	}
}

func TestTypeClassification(t *testing.T) {
	want := map[Opcode]Type{
		JUMP: TypeControl, CB: TypeControl,
		VLOAD: TypeDataTransfer, SMOVE: TypeDataTransfer, MSTORE: TypeDataTransfer,
		MMV: TypeMatrix, OP: TypeMatrix, MSM: TypeMatrix,
		VAV: TypeVector, VEXP: TypeVector, RV: TypeVector, VGTM: TypeVector, VGT: TypeVector,
		SADD: TypeScalar, SEXP: TypeScalar, SGT: TypeScalar, SAND: TypeScalar,
	}
	for op, typ := range want {
		if got := op.Type(); got != typ {
			t.Errorf("%v.Type() = %v, want %v", op, got, typ)
		}
	}
}

func TestTypeCounts(t *testing.T) {
	// DESIGN.md enumeration: 2 control, 9 data transfer, 6 matrix,
	// 17 vector (11 computational + 6 logical), 9 scalar (6 + 3).
	counts := map[Type]int{}
	for _, op := range Opcodes() {
		counts[op.Type()]++
	}
	want := map[Type]int{
		TypeControl:      2,
		TypeDataTransfer: 9,
		TypeMatrix:       6,
		TypeVector:       17,
		TypeScalar:       9,
	}
	for typ, n := range want {
		if counts[typ] != n {
			t.Errorf("%v: %d opcodes, want %d", typ, counts[typ], n)
		}
	}
}

func TestIsBranch(t *testing.T) {
	for _, op := range Opcodes() {
		want := op == JUMP || op == CB
		if got := op.IsBranch(); got != want {
			t.Errorf("%v.IsBranch() = %v", op, got)
		}
	}
}

func TestTypesOrderMatchesFig11(t *testing.T) {
	ts := Types()
	want := []Type{TypeDataTransfer, TypeControl, TypeMatrix, TypeVector, TypeScalar}
	if len(ts) != len(want) {
		t.Fatalf("Types() length %d", len(ts))
	}
	for i := range want {
		if ts[i] != want[i] {
			t.Errorf("Types()[%d] = %v, want %v", i, ts[i], want[i])
		}
	}
}

func TestTypeStrings(t *testing.T) {
	for _, typ := range Types() {
		if s := typ.String(); strings.HasPrefix(s, "Type(") {
			t.Errorf("missing name for %d", typ)
		}
	}
}

func TestInvalidOpcodePanicsAndReports(t *testing.T) {
	var op Opcode
	if op.Valid() {
		t.Error("zero opcode must be invalid")
	}
	if Opcode(200).Valid() {
		t.Error("out-of-range opcode must be invalid")
	}
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic on invalid opcode", name)
			}
		}()
		f()
	}
	mustPanic("Type", func() { _ = op.Type() })
	mustPanic("Format", func() { _ = op.Format() })
	mustPanic("Roles", func() { _ = op.Roles() })
}
