package core

import "fmt"

// Opcode identifies one of the 43 Cambricon instructions. The zero value is
// invalid so that an all-zero instruction word never decodes silently.
type Opcode uint8

// The full Cambricon instruction set. The paper states the ISA contains "a
// total of 43 64-bit scalar/control/vector/matrix instructions" but only
// names a subset explicitly; the remainder are reconstructed from Table I's
// categories (see DESIGN.md §3 for the enumeration argument).
const (
	opInvalid Opcode = iota

	// Control instructions (Fig. 1).
	JUMP // unconditional jump: PC += offset (GPR or immediate)
	CB   // conditional branch: if predictor GPR != 0, PC += offset

	// Data transfer instructions (Fig. 2 and Table I).
	VLOAD  // load vector: scratchpad[dest] <- main[base GPR + offset]
	VSTORE // store vector: main[base GPR + offset] <- scratchpad[src]
	VMOVE  // move vector within the vector scratchpad
	MLOAD  // load matrix into the matrix scratchpad
	MSTORE // store matrix from the matrix scratchpad
	MMOVE  // move matrix within the matrix scratchpad
	SLOAD  // load scalar: GPR <- main[base GPR + offset]
	SSTORE // store scalar: main[base GPR + offset] <- GPR
	SMOVE  // move scalar: GPR <- GPR or immediate

	// Matrix computational instructions (Section III-A).
	MMV // matrix-mult-vector: Vout = M * Vin (Fig. 4)
	VMM // vector-mult-matrix: Vout = Vin * M (backward pass, no transpose)
	MMS // matrix-mult-scalar: Mout = Min * s
	OP  // outer product: Mout = Vin0 (x) Vin1
	MAM // matrix-add-matrix: Mout = Min0 + Min1
	MSM // matrix-subtract-matrix: Mout = Min0 - Min1

	// Vector computational instructions (Section III-B).
	VAV  // vector-add-vector
	VSV  // vector-sub-vector
	VMV  // vector-mult-vector (element-wise)
	VDV  // vector-div-vector (element-wise)
	VAS  // vector-add-scalar (scalar from GPR or immediate)
	VEXP // vector element-wise exponential
	VLOG // vector element-wise natural logarithm
	VDOT // dot product, scalar result into a GPR
	RV   // random vector, uniform over [0, 1)
	VMAX // maximum element of a vector, into a GPR
	VMIN // minimum element of a vector, into a GPR

	// Scalar computational instructions (Section III-D).
	SADD // scalar add (operand 2 GPR or immediate)
	SSUB // scalar subtract
	SMUL // scalar multiply
	SDIV // scalar divide
	SEXP // scalar exponential
	SLOG // scalar logarithm

	// Vector logical instructions (Section III-C, Fig. 6).
	VGT  // element-wise greater-than, 0/1 result vector
	VE   // element-wise equality, 0/1 result vector
	VAND // element-wise logical AND
	VOR  // element-wise logical OR
	VNOT // element-wise logical NOT (inverter)
	VGTM // vector-greater-than-merge: Vout[i] = max(Vin0[i], Vin1[i])

	// Scalar logical instructions (Section III-C).
	SGT  // scalar greater-than, 0/1 result
	SE   // scalar equality, 0/1 result
	SAND // scalar logical AND

	numOpcodes
)

// NumInstructions is the size of the Cambricon instruction set. The paper
// reports 43 (Section V-B1).
const NumInstructions = int(numOpcodes) - 1

// Type is the five-way instruction classification used throughout the
// paper's evaluation (Fig. 11): data transfer, control, matrix, vector and
// scalar. Computational and logical vector instructions both count as
// "vector"; likewise for scalar.
type Type uint8

// Instruction types in Fig. 11's ordering.
const (
	TypeDataTransfer Type = iota
	TypeControl
	TypeMatrix
	TypeVector
	TypeScalar
	numTypes
)

// NumTypes is the number of instruction-type categories.
const NumTypes = int(numTypes)

func (t Type) String() string {
	switch t {
	case TypeDataTransfer:
		return "data transfer"
	case TypeControl:
		return "control"
	case TypeMatrix:
		return "matrix"
	case TypeVector:
		return "vector"
	case TypeScalar:
		return "scalar"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Types lists the five categories in Fig. 11's order.
func Types() []Type {
	return []Type{TypeDataTransfer, TypeControl, TypeMatrix, TypeVector, TypeScalar}
}

// opInfo is the static description of one opcode.
type opInfo struct {
	name string
	typ  Type
	fmt  Format
}

var opTable = [numOpcodes]opInfo{
	JUMP: {"JUMP", TypeControl, Format{Regs: 0, Tail: TailRegImm}},
	CB:   {"CB", TypeControl, Format{Regs: 1, Tail: TailRegImm}},

	VLOAD:  {"VLOAD", TypeDataTransfer, Format{Regs: 3, Tail: TailImm}},
	VSTORE: {"VSTORE", TypeDataTransfer, Format{Regs: 3, Tail: TailImm}},
	VMOVE:  {"VMOVE", TypeDataTransfer, Format{Regs: 3}},
	MLOAD:  {"MLOAD", TypeDataTransfer, Format{Regs: 3, Tail: TailImm}},
	MSTORE: {"MSTORE", TypeDataTransfer, Format{Regs: 3, Tail: TailImm}},
	MMOVE:  {"MMOVE", TypeDataTransfer, Format{Regs: 3}},
	SLOAD:  {"SLOAD", TypeDataTransfer, Format{Regs: 2, Tail: TailImm}},
	SSTORE: {"SSTORE", TypeDataTransfer, Format{Regs: 2, Tail: TailImm}},
	SMOVE:  {"SMOVE", TypeDataTransfer, Format{Regs: 1, Tail: TailRegImm}},

	MMV: {"MMV", TypeMatrix, Format{Regs: 5}},
	VMM: {"VMM", TypeMatrix, Format{Regs: 5}},
	MMS: {"MMS", TypeMatrix, Format{Regs: 3, Tail: TailRegImm}},
	OP:  {"OP", TypeMatrix, Format{Regs: 5}},
	MAM: {"MAM", TypeMatrix, Format{Regs: 4}},
	MSM: {"MSM", TypeMatrix, Format{Regs: 4}},

	VAV:  {"VAV", TypeVector, Format{Regs: 4}},
	VSV:  {"VSV", TypeVector, Format{Regs: 4}},
	VMV:  {"VMV", TypeVector, Format{Regs: 4}},
	VDV:  {"VDV", TypeVector, Format{Regs: 4}},
	VAS:  {"VAS", TypeVector, Format{Regs: 3, Tail: TailRegImm}},
	VEXP: {"VEXP", TypeVector, Format{Regs: 3}},
	VLOG: {"VLOG", TypeVector, Format{Regs: 3}},
	VDOT: {"VDOT", TypeVector, Format{Regs: 4}},
	RV:   {"RV", TypeVector, Format{Regs: 2}},
	VMAX: {"VMAX", TypeVector, Format{Regs: 3}},
	VMIN: {"VMIN", TypeVector, Format{Regs: 3}},

	SADD: {"SADD", TypeScalar, Format{Regs: 2, Tail: TailRegImm}},
	SSUB: {"SSUB", TypeScalar, Format{Regs: 2, Tail: TailRegImm}},
	SMUL: {"SMUL", TypeScalar, Format{Regs: 2, Tail: TailRegImm}},
	SDIV: {"SDIV", TypeScalar, Format{Regs: 2, Tail: TailRegImm}},
	SEXP: {"SEXP", TypeScalar, Format{Regs: 1, Tail: TailRegImm}},
	SLOG: {"SLOG", TypeScalar, Format{Regs: 1, Tail: TailRegImm}},

	VGT:  {"VGT", TypeVector, Format{Regs: 4}},
	VE:   {"VE", TypeVector, Format{Regs: 4}},
	VAND: {"VAND", TypeVector, Format{Regs: 4}},
	VOR:  {"VOR", TypeVector, Format{Regs: 4}},
	VNOT: {"VNOT", TypeVector, Format{Regs: 3}},
	VGTM: {"VGTM", TypeVector, Format{Regs: 4}},

	SGT:  {"SGT", TypeScalar, Format{Regs: 2, Tail: TailRegImm}},
	SE:   {"SE", TypeScalar, Format{Regs: 2, Tail: TailRegImm}},
	SAND: {"SAND", TypeScalar, Format{Regs: 2, Tail: TailRegImm}},
}

// Valid reports whether op names a real Cambricon instruction.
func (op Opcode) Valid() bool { return op > opInvalid && op < numOpcodes }

// String returns the assembler mnemonic.
func (op Opcode) String() string {
	if !op.Valid() {
		return fmt.Sprintf("Opcode(%d)", uint8(op))
	}
	return opTable[op].name
}

// Type returns the five-way classification of op used in Fig. 11.
func (op Opcode) Type() Type {
	if !op.Valid() {
		panic(fmt.Sprintf("core: Type of invalid opcode %d", uint8(op)))
	}
	return opTable[op].typ
}

// Format returns the operand format of op.
func (op Opcode) Format() Format {
	if !op.Valid() {
		panic(fmt.Sprintf("core: Format of invalid opcode %d", uint8(op)))
	}
	return opTable[op].fmt
}

// Opcodes lists every valid opcode in ascending order.
func Opcodes() []Opcode {
	out := make([]Opcode, 0, NumInstructions)
	for op := opInvalid + 1; op < numOpcodes; op++ {
		out = append(out, op)
	}
	return out
}

// ByName resolves an assembler mnemonic (upper case) to its opcode.
func ByName(name string) (Opcode, bool) {
	op, ok := nameToOp[name]
	return op, ok
}

var nameToOp = func() map[string]Opcode {
	m := make(map[string]Opcode, NumInstructions)
	for op := opInvalid + 1; op < numOpcodes; op++ {
		m[opTable[op].name] = op
	}
	return m
}()

// IsBranch reports whether op can redirect control flow.
func (op Opcode) IsBranch() bool { return op == JUMP || op == CB }
