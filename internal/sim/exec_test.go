package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"cambricon/internal/asm"
	"cambricon/internal/fixed"
)

// run assembles src, applies setup, runs, and returns the machine.
func run(t *testing.T, src string, setup func(*Machine)) (*Machine, Stats) {
	t.Helper()
	m, stats, err := tryRun(src, setup)
	if err != nil {
		t.Fatal(err)
	}
	return m, stats
}

func tryRun(src string, setup func(*Machine)) (*Machine, Stats, error) {
	p, err := asm.Assemble(src)
	if err != nil {
		return nil, Stats{}, err
	}
	m, err := New(DefaultConfig())
	if err != nil {
		return nil, Stats{}, err
	}
	if setup != nil {
		setup(m)
	}
	m.LoadProgram(p.Instructions)
	stats, err := m.Run()
	return m, stats, err
}

func TestScalarArithmetic(t *testing.T) {
	src := `
	SMOVE $1, #10
	SMOVE $2, #3
	SADD  $3, $1, $2
	SSUB  $4, $1, $2
	SMUL  $5, $1, $2
	SDIV  $6, $1, $2
	SADD  $7, $1, #-15
	SGT   $8, $1, $2
	SGT   $9, $2, $1
	SE    $10, $1, #10
	SE    $11, $1, #11
	SAND  $12, $8, $10
	SAND  $13, $8, $9
`
	m, _ := run(t, src, nil)
	want := map[uint8]int32{3: 13, 4: 7, 5: 30, 6: 3, 7: -5, 8: 1, 9: 0, 10: 1, 11: 0, 12: 1, 13: 0}
	for r, v := range want {
		if got := int32(m.GPR(r)); got != v {
			t.Errorf("$%d = %d, want %d", r, got, v)
		}
	}
}

func TestScalarDivisionByZero(t *testing.T) {
	_, _, err := tryRun("\tSMOVE $1, #5\n\tSDIV $2, $1, #0\n", nil)
	if err == nil {
		t.Fatal("expected division-by-zero error")
	}
	var re *RuntimeError
	if !errors.As(err, &re) {
		t.Fatalf("error type %T", err)
	}
	if re.PC != 1 {
		t.Errorf("fault PC = %d, want 1", re.PC)
	}
}

func TestScalarTranscendentals(t *testing.T) {
	// SEXP/SLOG interpret the GPR as Q8.8 fixed point.
	src := `
	SMOVE $1, #256      // 1.0
	SEXP  $2, $1
	SLOG  $3, $2
	SEXP  $4, #0
`
	m, _ := run(t, src, nil)
	if got := fixed.Num(int32(m.GPR(2))).Float(); math.Abs(got-math.E) > 1.0/256 {
		t.Errorf("SEXP(1.0) = %v", got)
	}
	if got := fixed.Num(int32(m.GPR(3))).Float(); math.Abs(got-1) > 3.0/256 {
		t.Errorf("SLOG(e) = %v", got)
	}
	if got := fixed.Num(int32(m.GPR(4))); got != fixed.One {
		t.Errorf("SEXP(0) = %v", got.Float())
	}
}

func TestScalarLoadStore(t *testing.T) {
	src := `
	SLOAD  $1, #0        // read word at 0
	SADD   $2, $1, #1
	SSTORE $2, #4        // write word at 4
	SMOVE  $3, #4
	SLOAD  $4, $3, #0    // read it back via base register
`
	m, _ := run(t, src, func(m *Machine) {
		if err := m.WriteMainWord(0, 41); err != nil {
			t.Fatal(err)
		}
	})
	if got, _ := m.ReadMainWord(4); got != 42 {
		t.Errorf("stored word = %d", got)
	}
	if got := int32(m.GPR(4)); got != 42 {
		t.Errorf("reloaded word = %d", got)
	}
}

func TestJumpAndConditionalBranch(t *testing.T) {
	// Sum 1..5 with a CB loop, then JUMP over a poison instruction.
	src := `
	SMOVE $1, #5       // i
	SMOVE $2, #0       // sum
loop:	SADD  $2, $2, $1
	SADD  $1, $1, #-1
	CB    #loop, $1
	JUMP  #done
	SMOVE $2, #999     // must be skipped
done:	SMOVE $3, #1
`
	m, stats := run(t, src, nil)
	if got := int32(m.GPR(2)); got != 15 {
		t.Errorf("sum = %d, want 15", got)
	}
	if got := int32(m.GPR(3)); got != 1 {
		t.Errorf("$3 = %d (JUMP target not reached?)", got)
	}
	if stats.BranchesTaken != 5 { // 4 taken CBs + 1 JUMP
		t.Errorf("taken branches = %d, want 5", stats.BranchesTaken)
	}
}

func TestCBComparesPredictorAgainstZero(t *testing.T) {
	// Fig. 1: the branch is taken by "a comparison between the predictor
	// and zero" — taken when predictor > 0 (Fig. 7: "if(x>0) goto L1").
	src := `
	SMOVE $1, #-1
	CB    #skip, $1   // not taken: predictor negative
	SMOVE $2, #7
skip:	SMOVE $3, #1
`
	m, _ := run(t, src, nil)
	if got := int32(m.GPR(2)); got != 7 {
		t.Errorf("negative predictor must not branch; $2 = %d", got)
	}
}

func TestVectorLoadStoreRoundTrip(t *testing.T) {
	in := fixed.FromFloats([]float64{1, -2, 3.5, 0, 127, -128, 0.25, -0.25})
	src := `
	SMOVE  $1, #8
	VLOAD  $2, $1, #1000   // spad[reg2=0...] wait: $2 holds spad addr 0
	VSTORE $2, $1, #2000
`
	m, _ := run(t, src, func(m *Machine) {
		if err := m.WriteMainNums(1000, in); err != nil {
			t.Fatal(err)
		}
	})
	out, err := m.ReadMainNums(2000, len(in))
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("element %d: got %v want %v", i, out[i], in[i])
		}
	}
}

// vecProgram loads two 8-element vectors from 1000/2000, applies op into a
// third region, and stores it to 3000.
func vecProgram(op string) string {
	return `
	SMOVE  $1, #8
	SMOVE  $2, #0       // a at vspad 0
	SMOVE  $3, #64      // b at vspad 64
	SMOVE  $4, #128     // out at vspad 128
	VLOAD  $2, $1, #1000
	VLOAD  $3, $1, #2000
	` + op + `
	VSTORE $4, $1, #3000
`
}

func setupTwoVectors(t *testing.T, a, b []float64) func(*Machine) {
	return func(m *Machine) {
		if err := m.WriteMainNums(1000, fixed.FromFloats(a)); err != nil {
			t.Fatal(err)
		}
		if err := m.WriteMainNums(2000, fixed.FromFloats(b)); err != nil {
			t.Fatal(err)
		}
	}
}

func readResult(t *testing.T, m *Machine, n int) []float64 {
	t.Helper()
	out, err := m.ReadMainNums(3000, n)
	if err != nil {
		t.Fatal(err)
	}
	return fixed.Floats(out)
}

func TestVectorElementwiseOps(t *testing.T) {
	a := []float64{1, 2, 3, 4, -1, -2, 0.5, 8}
	b := []float64{4, 3, 2, 1, -2, -1, 0.25, 2}
	cases := []struct {
		op   string
		want func(x, y float64) float64
	}{
		{"VAV $4, $1, $2, $3", func(x, y float64) float64 { return x + y }},
		{"VSV $4, $1, $2, $3", func(x, y float64) float64 { return x - y }},
		{"VMV $4, $1, $2, $3", func(x, y float64) float64 { return x * y }},
		{"VDV $4, $1, $2, $3", func(x, y float64) float64 { return x / y }},
		{"VGTM $4, $1, $2, $3", math.Max},
	}
	for _, c := range cases {
		t.Run(strings.Fields(c.op)[0], func(t *testing.T) {
			m, _ := run(t, vecProgram("\t"+c.op), setupTwoVectors(t, a, b))
			got := readResult(t, m, len(a))
			for i := range a {
				want := c.want(a[i], b[i])
				if math.Abs(got[i]-want) > 1.5/256 {
					t.Errorf("element %d: got %v want %v", i, got[i], want)
				}
			}
		})
	}
}

func TestVectorCompareAndLogic(t *testing.T) {
	a := []float64{1, 2, 0, 4, -1, 0, 1, 8}
	b := []float64{4, 2, 0, 1, -2, 1, 0, 8}
	one := fixed.One.Float()
	cases := []struct {
		op   string
		want func(x, y float64) float64
	}{
		{"VGT $4, $1, $2, $3", func(x, y float64) float64 {
			if x > y {
				return one
			}
			return 0
		}},
		{"VE $4, $1, $2, $3", func(x, y float64) float64 {
			if x == y {
				return one
			}
			return 0
		}},
		{"VAND $4, $1, $2, $3", func(x, y float64) float64 {
			if x != 0 && y != 0 {
				return one
			}
			return 0
		}},
		{"VOR $4, $1, $2, $3", func(x, y float64) float64 {
			if x != 0 || y != 0 {
				return one
			}
			return 0
		}},
	}
	for _, c := range cases {
		t.Run(strings.Fields(c.op)[0], func(t *testing.T) {
			m, _ := run(t, vecProgram("\t"+c.op), setupTwoVectors(t, a, b))
			got := readResult(t, m, len(a))
			for i := range a {
				if got[i] != c.want(a[i], b[i]) {
					t.Errorf("element %d: got %v", i, got[i])
				}
			}
		})
	}
}

func TestVNOT(t *testing.T) {
	a := []float64{0, 1, -1, 0, 2, 0, 0.5, 0}
	m, _ := run(t, vecProgram("\tVNOT $4, $1, $2"), setupTwoVectors(t, a, a))
	got := readResult(t, m, len(a))
	for i := range a {
		want := 0.0
		if a[i] == 0 {
			want = fixed.One.Float()
		}
		if got[i] != want {
			t.Errorf("element %d: got %v want %v", i, got[i], want)
		}
	}
}

func TestVASImmediateAndRegister(t *testing.T) {
	a := []float64{0, 1, -1, 0.5, 2, -2, 3, -3}
	m, _ := run(t, vecProgram("\tVAS $4, $1, $2, #256"), setupTwoVectors(t, a, a))
	got := readResult(t, m, len(a))
	for i := range a {
		if math.Abs(got[i]-(a[i]+1)) > 1e-9 {
			t.Errorf("imm: element %d: got %v", i, got[i])
		}
	}
	m2, _ := run(t, vecProgram("\tSMOVE $5, #-256\n\tVAS $4, $1, $2, $5"), setupTwoVectors(t, a, a))
	got2 := readResult(t, m2, len(a))
	for i := range a {
		if math.Abs(got2[i]-(a[i]-1)) > 1e-9 {
			t.Errorf("reg: element %d: got %v", i, got2[i])
		}
	}
}

func TestVEXPAndVLOG(t *testing.T) {
	a := []float64{0, 1, -1, 0.5, 2, -2, 3, 0.25}
	m, _ := run(t, vecProgram("\tVEXP $4, $1, $2"), setupTwoVectors(t, a, a))
	got := readResult(t, m, len(a))
	for i := range a {
		want := math.Exp(a[i])
		if math.Abs(got[i]-want) > 0.01*want+1.0/256 {
			t.Errorf("VEXP element %d: got %v want %v", i, got[i], want)
		}
	}
	pos := []float64{1, 2, 0.5, 4, 8, 16, 32, 64}
	m2, _ := run(t, vecProgram("\tVLOG $4, $1, $2"), setupTwoVectors(t, pos, pos))
	got2 := readResult(t, m2, len(pos))
	for i := range pos {
		want := math.Log(pos[i])
		if math.Abs(got2[i]-want) > 2.0/256 {
			t.Errorf("VLOG element %d: got %v want %v", i, got2[i], want)
		}
	}
}

func TestVDOTVMAXVMIN(t *testing.T) {
	a := []float64{1, 2, 3, 4, -5, 6, 7, 8}
	b := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	src := vecProgram("\tVDOT $10, $1, $2, $3\n\tVMAX $11, $1, $2\n\tVMIN $12, $1, $2\n\tVMOVE $4, $1, $2")
	m, _ := run(t, src, setupTwoVectors(t, a, b))
	if got := fixed.Num(int32(m.GPR(10))).Float(); got != 26 {
		t.Errorf("VDOT = %v, want 26", got)
	}
	if got := fixed.Num(int32(m.GPR(11))).Float(); got != 8 {
		t.Errorf("VMAX = %v, want 8", got)
	}
	if got := fixed.Num(int32(m.GPR(12))).Float(); got != -5 {
		t.Errorf("VMIN = %v, want -5", got)
	}
}

// TestVMAXVMINEveryLength runs VMAX and VMIN over vectors of 1 to 9
// words, which covers no to two four-word steps of the reduction and
// every remainder after them, with the extreme word at every position,
// ties, and Min and Max themselves, against a one-chain loop.
func TestVMAXVMINEveryLength(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for n := 1; n <= 9; n++ {
		for p := 0; p < n; p++ {
			for _, extreme := range []fixed.Num{fixed.Max, fixed.Min, 0} {
				v := make([]fixed.Num, n)
				for i := range v {
					v[i] = fixed.Num(rng.Intn(9) - 4)
				}
				v[p] = extreme
				wantMax, wantMin := v[0], v[0]
				for _, x := range v {
					wantMax, wantMin = max(wantMax, x), min(wantMin, x)
				}
				src := fmt.Sprintf("\tSMOVE $1, #%d\n\tSMOVE $2, #0\n\tVLOAD $2, $1, #1000\n\tVMAX $11, $1, $2\n\tVMIN $12, $1, $2\n", n)
				m, _ := run(t, src, func(m *Machine) {
					if err := m.WriteMainNums(1000, v); err != nil {
						t.Fatal(err)
					}
				})
				if got := fixed.Num(int32(m.GPR(11))); got != wantMax {
					t.Errorf("VMAX %v = %d, want %d", v, got, wantMax)
				}
				if got := fixed.Num(int32(m.GPR(12))); got != wantMin {
					t.Errorf("VMIN %v = %d, want %d", v, got, wantMin)
				}
			}
		}
	}
}

func TestVMOVECopiesWithinSpad(t *testing.T) {
	a := []float64{9, 8, 7, 6, 5, 4, 3, 2}
	m, _ := run(t, vecProgram("\tVMOVE $4, $1, $2"), setupTwoVectors(t, a, a))
	got := readResult(t, m, len(a))
	for i := range a {
		if got[i] != a[i] {
			t.Errorf("element %d: got %v", i, got[i])
		}
	}
}

func TestRVUniformAndDeterministic(t *testing.T) {
	src := `
	SMOVE  $1, #64
	SMOVE  $2, #0
	RV     $2, $1
	VSTORE $2, $1, #3000
`
	m1, _ := run(t, src, nil)
	out1 := readResult(t, m1, 64)
	distinct := map[float64]bool{}
	for i, v := range out1 {
		if v < 0 || v >= 1 {
			t.Errorf("element %d = %v outside [0,1)", i, v)
		}
		distinct[v] = true
	}
	if len(distinct) < 16 {
		t.Errorf("only %d distinct random values in 64 draws", len(distinct))
	}
	// Same seed, same stream.
	m2, _ := run(t, src, nil)
	out2 := readResult(t, m2, 64)
	for i := range out1 {
		if out1[i] != out2[i] {
			t.Fatalf("RV must be deterministic per seed")
		}
	}
	// Different seed, different stream.
	cfg := DefaultConfig()
	cfg.Seed = 99
	p := mustAssemble(t, src)
	m3 := mustNew(t, cfg)
	m3.LoadProgram(p.Instructions)
	if _, err := m3.Run(); err != nil {
		t.Fatal(err)
	}
	out3raw, _ := m3.ReadMainNums(3000, 64)
	same := 0
	for i, v := range fixed.Floats(out3raw) {
		if v == out1[i] {
			same++
		}
	}
	if same == 64 {
		t.Error("different seeds produced identical streams")
	}
}

func TestMMVMatchesReference(t *testing.T) {
	// y = W x with W 3x4 (row major), x length 4.
	w := []float64{
		1, 2, 3, 4,
		0.5, -1, 0, 2,
		-2, 1, 1, -1,
	}
	x := []float64{1, 0.5, -1, 2}
	src := `
	SMOVE  $1, #4       // in size
	SMOVE  $2, #3       // out size
	SMOVE  $3, #12      // matrix elems
	SMOVE  $4, #0       // x at vspad 0
	SMOVE  $5, #0       // W at mspad 0
	SMOVE  $6, #100     // y at vspad 100
	VLOAD  $4, $1, #1000
	MLOAD  $5, $3, #2000
	MMV    $6, $2, $5, $4, $1
	VSTORE $6, $2, #3000
`
	m, _ := run(t, src, func(m *Machine) {
		if err := m.WriteMainNums(1000, fixed.FromFloats(x)); err != nil {
			t.Fatal(err)
		}
		if err := m.WriteMainNums(2000, fixed.FromFloats(w)); err != nil {
			t.Fatal(err)
		}
	})
	got := readResult(t, m, 3)
	want := []float64{1*1 + 2*0.5 + 3*-1 + 4*2, 0.5*1 + -1*0.5 + 0 + 2*2, -2 + 0.5 + -1 + -2}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 0.05 {
			t.Errorf("y[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestVMMMatchesTransposedContraction(t *testing.T) {
	// y = x W with W 3x4: y has length 4, contraction over rows.
	w := []float64{
		1, 2, 3, 4,
		0.5, -1, 0, 2,
		-2, 1, 1, -1,
	}
	x := []float64{1, -1, 2}
	src := `
	SMOVE  $1, #3       // in size (rows)
	SMOVE  $2, #4       // out size (cols)
	SMOVE  $3, #12
	SMOVE  $4, #0
	SMOVE  $5, #0
	SMOVE  $6, #100
	VLOAD  $4, $1, #1000
	MLOAD  $5, $3, #2000
	VMM    $6, $2, $5, $4, $1
	VSTORE $6, $2, #3000
`
	m, _ := run(t, src, func(m *Machine) {
		if err := m.WriteMainNums(1000, fixed.FromFloats(x)); err != nil {
			t.Fatal(err)
		}
		if err := m.WriteMainNums(2000, fixed.FromFloats(w)); err != nil {
			t.Fatal(err)
		}
	})
	got := readResult(t, m, 4)
	want := make([]float64, 4)
	for j := 0; j < 4; j++ {
		for i := 0; i < 3; i++ {
			want[j] += x[i] * w[i*4+j]
		}
	}
	for j := range want {
		if math.Abs(got[j]-want[j]) > 0.05 {
			t.Errorf("y[%d] = %v, want %v", j, got[j], want[j])
		}
	}
}

func TestOuterProductMAMMSMAndMMS(t *testing.T) {
	// dW = eta * (a (x) b); W' = W + dW; W'' = W' - dW  => W'' == W.
	a := []float64{1, 2}
	b := []float64{3, -1, 0.5}
	w := []float64{1, 1, 1, 2, 2, 2}
	src := `
	SMOVE  $1, #2       // |a|
	SMOVE  $2, #3       // |b|
	SMOVE  $3, #6       // matrix elems
	SMOVE  $4, #0       // a at vspad 0
	SMOVE  $5, #64      // b at vspad 64
	SMOVE  $6, #0       // W at mspad 0
	SMOVE  $7, #4096    // dW at mspad 4096
	SMOVE  $8, #8192    // W' at mspad 8192
	VLOAD  $4, $1, #1000
	VLOAD  $5, $2, #1100
	MLOAD  $6, $3, #2000
	OP     $7, $4, $1, $5, $2    // dW = a (x) b
	MMS    $7, $3, $7, #128      // dW *= 0.5
	MAM    $8, $3, $6, $7        // W' = W + dW
	MSM    $8, $3, $8, $7        // W'' = W' - dW
	MSTORE $8, $3, #3000
	MSTORE $7, $3, #4000
`
	m, _ := run(t, src, func(m *Machine) {
		for addr, vals := range map[int][]float64{1000: a, 1100: b, 2000: w} {
			if err := m.WriteMainNums(addr, fixed.FromFloats(vals)); err != nil {
				t.Fatal(err)
			}
		}
	})
	got := readResult(t, m, 6)
	for i := range w {
		if math.Abs(got[i]-w[i]) > 1.0/128 {
			t.Errorf("W''[%d] = %v, want %v", i, got[i], w[i])
		}
	}
	dw, _ := m.ReadMainNums(4000, 6)
	wantDW := []float64{1.5, -0.5, 0.25, 3, -1, 0.5}
	for i, v := range fixed.Floats(dw) {
		if math.Abs(v-wantDW[i]) > 1.0/128 {
			t.Errorf("dW[%d] = %v, want %v", i, v, wantDW[i])
		}
	}
}

func TestFig7MLPLayerEndToEnd(t *testing.T) {
	// The Fig. 7 MLP fragment (plus a bias load): y = sigmoid(Wx + b).
	in := []float64{0.5, -1, 2}
	w := []float64{
		0.5, 1, -0.5,
		-1, 0.25, 0.75,
		2, -1, 0.5,
	}
	bias := []float64{0.1, -0.2, 0.3}
	src := `
	SMOVE  $0, #3       // input size
	SMOVE  $1, #3       // output size
	SMOVE  $2, #9       // matrix size
	SMOVE  $3, #0       // input address (vspad)
	SMOVE  $4, #0       // weight address (mspad)
	SMOVE  $5, #64      // bias address (vspad)
	SMOVE  $6, #512     // output address (vspad)
	SMOVE  $7, #128     // temps
	SMOVE  $8, #192
	SMOVE  $9, #256
	SMOVE  $10, #320
	VLOAD  $3, $0, #100     // load input vector
	VLOAD  $5, $1, #400     // load bias vector
	MLOAD  $4, $2, #300     // load weight matrix
	MMV    $7, $1, $4, $3, $0   // Wx
	VAV    $8, $1, $7, $5       // tmp = Wx + b
	VEXP   $9, $1, $8           // exp(tmp)
	VAS    $10, $1, $9, #256    // 1 + exp(tmp)
	VDV    $6, $1, $9, $10      // y = exp/(1+exp)
	VSTORE $6, $1, #200         // store output
`
	m, stats := run(t, src, func(m *Machine) {
		for addr, vals := range map[int][]float64{100: in, 300: w, 400: bias} {
			if err := m.WriteMainNums(addr, fixed.FromFloats(vals)); err != nil {
				t.Fatal(err)
			}
		}
	})
	got, err := m.ReadMainNums(200, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		pre := bias[i]
		for j := 0; j < 3; j++ {
			pre += w[i*3+j] * in[j]
		}
		want := 1 / (1 + math.Exp(-pre))
		if g := got[i].Float(); math.Abs(g-want) > 0.02 {
			t.Errorf("y[%d] = %v, want %v", i, g, want)
		}
	}
	if stats.Instructions != 20 {
		t.Errorf("dynamic instructions = %d, want 20", stats.Instructions)
	}
	if stats.Cycles <= 0 {
		t.Error("cycles not counted")
	}
}

func TestFig7PoolingLoop(t *testing.T) {
	// 2x2 max pooling over a 2x2 window with 4 feature maps, layout
	// [y][x][channel] as in the paper's pooling discussion.
	input := [][]float64{
		{5, 0, 1, 2},  // (x=0,y=0) channels
		{3, 4, 2, 0},  // (x=1,y=0)
		{1, 6, 0, 3},  // (x=0,y=1)
		{2, 2, 4, -1}, // (x=1,y=1)
	}
	want := []float64{5, 6, 4, 3}
	flat := make([]float64, 0, 16)
	for _, px := range input {
		flat = append(flat, px...)
	}
	src := `
	SMOVE  $0, #4        // feature maps (channel vector size)
	SMOVE  $1, #16       // input data size
	SMOVE  $2, #4        // output data size
	SMOVE  $3, #2        // pooling window edge
	SMOVE  $6, #0        // input addr (vspad)
	SMOVE  $7, #512      // output addr (vspad): starts as -inf surrogate
	SMOVE  $8, #0        // y-axis extra stride (window spans full row here)
	VLOAD  $6, $1, #100
	SMOVE  $5, $3
L0:	SMOVE  $4, $3
L1:	VGTM   $7, $0, $6, $7
	SADD   $6, $6, #8    // advance one pixel (4 channels x 2 bytes)
	SADD   $4, $4, #-1
	CB     #L1, $4
	SADD   $6, $6, $8
	SADD   $5, $5, #-1
	CB     #L0, $5
	VSTORE $7, $2, #200
`
	// The freshly-reset vector scratchpad is zero, which serves as the
	// initial accumulator (all pooled maxima here are positive).
	m, _ := run(t, src, func(m *Machine) {
		if err := m.WriteMainNums(100, fixed.FromFloats(flat)); err != nil {
			t.Fatal(err)
		}
	})
	got, err := m.ReadMainNums(200, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if g := got[i].Float(); g != want[i] {
			t.Errorf("pooled[%d] = %v, want %v", i, g, want[i])
		}
	}
}

func TestRuntimeErrorsCarryPC(t *testing.T) {
	cases := []struct{ name, src string }{
		{"vspad overflow", "\tSMOVE $1, #100000\n\tSMOVE $2, #0\n\tRV $2, $1\n"},
		{"negative size", "\tSMOVE $1, #-4\n\tSMOVE $2, #0\n\tRV $2, $1\n"},
		{"main out of range", "\tSMOVE $1, #8\n\tVLOAD $2, $1, #-16\n"},
		{"empty reduce", "\tSMOVE $1, #0\n\tVMAX $2, $1, $3\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, _, err := tryRun(c.src, nil)
			var re *RuntimeError
			if err == nil || !errors.As(err, &re) {
				t.Fatalf("want RuntimeError, got %v", err)
			}
		})
	}
}

func TestRunawayLoopGuard(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxDynamicInstructions = 100
	p := mustAssemble(t, "loop:\tSMOVE $1, #1\n\tJUMP #loop\n")
	m := mustNew(t, cfg)
	m.LoadProgram(p.Instructions)
	if _, err := m.Run(); err == nil {
		t.Fatal("expected instruction-limit error")
	}
}

func TestControlFlowLeavingProgramFails(t *testing.T) {
	_, _, err := tryRun("\tJUMP #-3\n", nil)
	if err == nil {
		t.Fatal("expected control-flow error")
	}
	if !strings.Contains(err.Error(), "left the program") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestStatsInstructionMix(t *testing.T) {
	_, stats := run(t, vecProgram("\tVAV $4, $1, $2, $3"), setupTwoVectors(t,
		make([]float64, 8), make([]float64, 8)))
	// 4 SMOVE (data transfer) + 2 VLOAD + 1 VSTORE (data transfer) + 1 VAV.
	if got := stats.ByType[0]; got != 7 { // TypeDataTransfer
		t.Errorf("data transfer count = %d, want 7", got)
	}
	if stats.Instructions != 8 {
		t.Errorf("instructions = %d", stats.Instructions)
	}
	if stats.VectorElems != 8 {
		t.Errorf("vector elems = %d", stats.VectorElems)
	}
	if stats.DMABytes != 3*16 {
		t.Errorf("dma bytes = %d", stats.DMABytes)
	}
}

// TestCorruptLengthFailsBeforeSizingBuffers pins that an out-of-range
// length fails on the first region its instruction touches, with that
// region's error, before any operand or result buffer is sized from it.
// A length bit flipped by a fault otherwise allocated (and filled) up to
// 2 GiB before the failing access, and the machine kept the buffer.
func TestCorruptLengthFailsBeforeSizingBuffers(t *testing.T) {
	// $1 = 2^30 elements (2 GiB); $2 = 0; $3 = 16384 elements, a length
	// the vector scratchpad holds but whose square the matrix one does not.
	const setup = "\tSMOVE $1, #16384\n\tSMUL $1, $1, #65536\n\tSMOVE $2, #0\n\tSMOVE $3, #16384\n"
	const (
		vspad   = "mem: vector-spad: access [0, 2147483648) outside capacity 65536"
		mspad   = "mem: matrix-spad: access [0, 2147483648) outside capacity 786432"
		mainMem = "mem: main: access [0, 2147483648) outside capacity 16777216"
	)
	cases := []struct{ name, inst, want string }{
		{"RV", "RV $2, $1", vspad},
		{"VLOAD", "VLOAD $2, $1, #0", mainMem},
		{"VSTORE", "VSTORE $2, $1, #0", vspad},
		{"MLOAD", "MLOAD $2, $1, #0", mainMem},
		{"MSTORE", "MSTORE $2, $1, #0", mspad},
		{"VMOVE", "VMOVE $2, $1, $2", vspad},
		{"MMOVE", "MMOVE $2, $1, $2", mspad},
		{"OP", "OP $2, $2, $3, $2, $3", "mem: matrix-spad: access [0, 536870912) outside capacity 786432"},
		{"MMV of an empty input", "MMV $2, $1, $2, $2, $2", vspad},
		{"VMM of an empty input", "VMM $2, $1, $2, $2, $2", vspad},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := mustNew(t, DefaultConfig())
			m.LoadProgram(mustAssemble(t, setup+"\t"+c.inst+"\n").Instructions)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := m.Run()
			runtime.ReadMemStats(&after)
			if err == nil || !strings.HasSuffix(err.Error(), ": "+c.want) {
				t.Fatalf("error = %v, want one ending in %q", err, c.want)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
				t.Errorf("failing run allocated %d bytes, want under 1 MiB", got)
			}
		})
	}
}
