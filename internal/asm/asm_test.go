package asm

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cambricon/internal/core"
)

// The Fig. 7 MLP fragment. The paper's listings omit scalar setup "for the
// sake of brevity"; we use the $63 base-register convention (see the
// assembler's short-form docs) for absolute main-memory addresses.
const mlpSrc = `
	// $0: input size, $1: output size, $2: matrix size
	// $3: input address, $4: weight address
	// $5: bias address, $6: output address
	// $7-$10: temp variable address
	VLOAD  $3, $0, #100       // load input vector from address (100)
	MLOAD  $4, $2, #300       // load weight matrix from address (300)
	MMV    $7, $1, $4, $3, $0 // Wx
	VAV    $8, $1, $7, $5     // tmp = Wx + b
	VEXP   $9, $1, $8         // exp(tmp)
	VAS    $10, $1, $9, #256  // 1 + exp(tmp)   (fixed-point 1.0 = 256)
	VDV    $6, $1, $9, $10    // y = exp(tmp)/(1+exp(tmp))
	VSTORE $6, $1, #200       // store output vector to address (200)
`

// The Fig. 7 pooling fragment.
const poolingSrc = `
	// $0: feature map size, $1: input data size
	// $2: output data size, $3: pooling window size - 1
	// $4: x-axis loop num, $5: y-axis loop num
	// $6: input addr, $7: output addr
	// $8: y-axis stride of input
	VLOAD  $6, $1, #100     // load input neurons from address (100)
	SMOVE  $5, $3           // init y
L0:	SMOVE  $4, $3           // init x
L1:	VGTM   $7, $0, $6, $7   // output[m] = max(input[x][y][m], output[m])
	SADD   $6, $6, $0       // update input address
	SADD   $4, $4, #-1      // x--
	CB     #L1, $4          // if (x > 0) goto L1
	SADD   $6, $6, $8       // update input address
	SADD   $5, $5, #-1      // y--
	CB     #L0, $5          // if (y > 0) goto L0
	VSTORE $7, $2, #200     // store output neurons to address (200)
`

// The Fig. 7 BM fragment.
const bmSrc = `
	// $0: visible vector size, $1: hidden vector size, $2: W size
	// $3: L size, $4: visible vector address, $5: W address
	// $6: L address, $7: bias address, $8: hidden vector address
	// $9-$17: temp variable address
	VLOAD  $4, $0, #100        // load visible vector
	VLOAD  $9, $1, #200        // load hidden vector
	MLOAD  $5, $2, #300        // load W matrix
	MLOAD  $6, $3, #400        // load L matrix
	MMV    $10, $1, $5, $4, $0 // Wv
	MMV    $11, $1, $6, $9, $1 // Lh
	VAV    $12, $1, $10, $11   // Wv + Lh
	VAV    $13, $1, $12, $7    // tmp = Wv + Lh + b
	VEXP   $14, $1, $13        // exp(tmp)
	VAS    $15, $1, $14, #256  // 1 + exp(tmp)
	VDV    $16, $1, $14, $15   // y = exp(tmp)/(1+exp(tmp))
	RV     $17, $1             // r[i] = random(0,1)
	VGT    $8, $1, $17, $16    // h[i] = (r[i] > y[i]) ? 1 : 0
	VSTORE $8, $1, #500        // store hidden vector
`

func TestAssembleFig7MLP(t *testing.T) {
	p, err := Assemble(mlpSrc)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's MLP fragment is 8 instructions (Section V-B2 notes MLP's
	// very high code density).
	if p.Len() != 8 {
		t.Fatalf("MLP fragment length %d, want 8", p.Len())
	}
	wantOps := []core.Opcode{core.VLOAD, core.MLOAD, core.MMV, core.VAV,
		core.VEXP, core.VAS, core.VDV, core.VSTORE}
	for i, op := range wantOps {
		if p.Instructions[i].Op != op {
			t.Errorf("instruction %d: got %v want %v", i, p.Instructions[i].Op, op)
		}
	}
	// VLOAD short form fills the $63 base-register convention.
	ld := p.Instructions[0]
	if ld.R[0] != 3 || ld.R[1] != 0 || ld.R[2] != 63 || ld.Imm != 100 || !ld.TailImm {
		t.Errorf("VLOAD lowering: %+v", ld)
	}
	mmv := p.Instructions[2]
	if mmv.R != [5]uint8{7, 1, 4, 3, 0} {
		t.Errorf("MMV operands: %v", mmv.R)
	}
}

func TestAssembleFig7Pooling(t *testing.T) {
	p, err := Assemble(poolingSrc)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 11 {
		t.Fatalf("pooling fragment length %d, want 11", p.Len())
	}
	if p.Labels["L0"] != 2 || p.Labels["L1"] != 3 {
		t.Errorf("labels: %v", p.Labels)
	}
	// CB #L1, $4 at pc 6 must encode offset L1-6 = -3 with predictor $4.
	cb := p.Instructions[6]
	if cb.Op != core.CB || cb.R[0] != 4 || cb.Imm != -3 || !cb.TailImm {
		t.Errorf("CB lowering: %+v", cb)
	}
	// CB #L0, $5 at pc 9: offset 2-9 = -7.
	if got := p.Instructions[9]; got.Imm != -7 || got.R[0] != 5 {
		t.Errorf("outer CB lowering: %+v", got)
	}
}

func TestAssembleFig7BM(t *testing.T) {
	p, err := Assemble(bmSrc)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 14 {
		t.Fatalf("BM fragment length %d, want 14", p.Len())
	}
	rv := p.Instructions[11]
	if rv.Op != core.RV || rv.R[0] != 17 || rv.R[1] != 1 {
		t.Errorf("RV lowering: %+v", rv)
	}
}

func TestFig7TypeMix(t *testing.T) {
	p := mustAssemble(t, poolingSrc)
	mix := p.TypeMix()
	if mix[core.TypeControl] != 2 {
		t.Errorf("control count %d, want 2", mix[core.TypeControl])
	}
	if mix[core.TypeDataTransfer] != 4 { // VLOAD, VSTORE, 2x SMOVE
		t.Errorf("data transfer count %d, want 4", mix[core.TypeDataTransfer])
	}
	if mix[core.TypeVector] != 1 { // VGTM
		t.Errorf("vector count %d, want 1", mix[core.TypeVector])
	}
	if mix[core.TypeScalar] != 4 { // 4x SADD
		t.Errorf("scalar count %d, want 4", mix[core.TypeScalar])
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"unknown mnemonic", "\tFOO $1", "unknown instruction"},
		{"bad register", "\tSADD $64, $1, $2", "bad register"},
		{"bad operand", "\tSADD %1, $1, $2", "bad operand"},
		{"operand count", "\tSADD $1, $2", "takes 3 operands"},
		{"too many operands", "\tJUMP #1, #2", "takes 1 operands"},
		{"undefined label", "\tJUMP #nowhere", "undefined label"},
		{"duplicate label", "a:\n\tSMOVE $1, #0\na:\n\tSMOVE $1, #0", "duplicate label"},
		{"label on non-branch", "x:\tSMOVE $1, #x", "label operand on non-branch"},
		{"register where imm required", "\tVLOAD $1, $2, $3, $4", "must be an immediate"},
		{"imm where reg required", "\tVAV #1, $2, $3, $4", "must be a register"},
		{"bad label", "9bad:\tSMOVE $1, #0", "invalid label"},
		{"empty operand", "\tSADD $1, , $2", "empty operand"},
		{"empty immediate", "\tSMOVE $1, #", "empty immediate"},
		{"huge immediate", "\tSMOVE $1, #4294967296", "32 bits"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Assemble(c.src)
			if err == nil {
				t.Fatalf("expected error containing %q", c.wantSub)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q does not contain %q", err, c.wantSub)
			}
		})
	}
}

func TestErrorsCarryLineNumbers(t *testing.T) {
	_, err := Assemble("\tSMOVE $1, #0\n\tSMOVE $1, #0\n\tBOGUS $1\n")
	if err == nil {
		t.Fatal("expected error")
	}
	var ae *Error
	if e, ok := err.(*Error); ok {
		ae = e
	} else {
		t.Fatalf("error type %T", err)
	}
	if ae.Line != 3 {
		t.Errorf("error line %d, want 3", ae.Line)
	}
}

func TestCaseInsensitiveMnemonics(t *testing.T) {
	p, err := Assemble("\tsmove $1, #5\n\tSmOvE $2, $1\n")
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 {
		t.Fatalf("len %d", p.Len())
	}
}

func TestHexImmediates(t *testing.T) {
	p := mustAssemble(t, "\tSMOVE $1, #0x10\n")
	if p.Instructions[0].Imm != 16 {
		t.Errorf("hex immediate: %d", p.Instructions[0].Imm)
	}
}

func TestLabelAtEndOfProgram(t *testing.T) {
	p, err := Assemble("\tCB #end, $1\n\tSMOVE $2, #0\nend:\n")
	if err != nil {
		t.Fatal(err)
	}
	if p.Instructions[0].Imm != 2 {
		t.Errorf("forward offset to end: %d", p.Instructions[0].Imm)
	}
}

func TestStandaloneAndSharedLabels(t *testing.T) {
	src := `
start:
loop:	SADD $1, $1, #-1
	CB #loop, $1
	JUMP #start
`
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Labels["start"] != 0 || p.Labels["loop"] != 0 {
		t.Errorf("labels %v", p.Labels)
	}
	if p.Instructions[2].Imm != -2 {
		t.Errorf("JUMP offset %d, want -2", p.Instructions[2].Imm)
	}
}

func TestDisassembleRoundTrip(t *testing.T) {
	for _, src := range []string{mlpSrc, poolingSrc, bmSrc} {
		p1 := mustAssemble(t, src)
		text := Disassemble(p1.Instructions)
		p2, err := Assemble(text)
		if err != nil {
			t.Fatalf("reassemble failed: %v\n%s", err, text)
		}
		if p2.Len() != p1.Len() {
			t.Fatalf("round trip length %d != %d", p2.Len(), p1.Len())
		}
		for i := range p1.Instructions {
			if p1.Instructions[i] != p2.Instructions[i] {
				t.Errorf("instruction %d: %v != %v", i, p1.Instructions[i], p2.Instructions[i])
			}
		}
	}
}

func TestDisassembleLabelsBranches(t *testing.T) {
	p := mustAssemble(t, poolingSrc)
	text := Disassemble(p.Instructions)
	if !strings.Contains(text, "L0:") || !strings.Contains(text, "CB #L1, $4") {
		t.Errorf("disassembly missing labels:\n%s", text)
	}
}

func TestBuilder(t *testing.T) {
	var b Builder
	b.Comment("tiny loop")
	b.Op(core.SMOVE, R(1), Imm(3))
	top := b.NewLabel("loop")
	b.Label(top)
	b.Opc(core.SADD, "decrement", R(1), R(1), Imm(-1))
	b.Op(core.CB, Lbl(top), R(1))
	p, err := Assemble(b.Source())
	if err != nil {
		t.Fatalf("%v\n%s", err, b.Source())
	}
	if p.Len() != 3 {
		t.Fatalf("len %d", p.Len())
	}
	if p.Instructions[2].Imm != -1 {
		t.Errorf("loop offset %d", p.Instructions[2].Imm)
	}
	if !strings.Contains(b.Source(), "// decrement") {
		t.Error("missing comment")
	}
}

func TestBuilderUniqueLabels(t *testing.T) {
	var b Builder
	if b.NewLabel("x") == b.NewLabel("x") {
		t.Error("NewLabel must return unique names")
	}
}

func TestTestdataProgramsAssemble(t *testing.T) {
	files, err := filepath.Glob("../../testdata/*.cam")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs found: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Assemble(string(src))
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		if p.Len() == 0 {
			t.Errorf("%s: empty program", f)
		}
	}
}

func TestDataDirective(t *testing.T) {
	p, err := Assemble(`
.data 100: 0.5, -1, 0.25
.data 2048: 1
	SMOVE $1, #3
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Data) != 2 {
		t.Fatalf("%d data chunks", len(p.Data))
	}
	if p.Data[0].Addr != 100 || len(p.Data[0].Values) != 3 {
		t.Errorf("chunk 0: %+v", p.Data[0])
	}
	if got := p.Data[0].Values[1].Float(); got != -1 {
		t.Errorf("value = %v", got)
	}
	if p.Len() != 1 {
		t.Errorf("data lines must not count as instructions")
	}
	bad := []string{
		".data : 1\n", ".data 5\n", ".data x: 1\n", ".data 5: \n",
		".data 5: 1, , 2\n", ".data -4: 1\n", ".data 5: zz\n",
	}
	for _, src := range bad {
		if _, err := Assemble(src); err == nil {
			t.Errorf("bad directive %q accepted", src)
		}
	}
}
