package sim

import (
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"cambricon/internal/core"
	"cambricon/internal/fixed"
	"cambricon/internal/trace"
)

// refInterp is an independently-written, deliberately naive interpreter for
// the computational and data-transfer subset of the ISA. Differential
// testing against the pipelined Machine is the software analogue of
// golden-model-vs-RTL verification: the two implementations share only the
// fixed-point datapath spec (internal/fixed) and must agree bit for bit on
// every architectural effect.
type refInterp struct {
	gpr   [core.NumGPRs]int32
	vspad []byte
	mspad []byte
	main  []byte
	rng   uint64
}

func newRefInterp(seed uint64) *refInterp {
	if seed == 0 {
		seed = 1
	}
	return &refInterp{
		vspad: make([]byte, core.VectorSpadBytes),
		mspad: make([]byte, core.MatrixSpadBytes),
		main:  make([]byte, 1<<20),
		rng:   seed,
	}
}

func (r *refInterp) rand() fixed.Num {
	x := r.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.rng = x
	return fixed.Num((x * 0x2545f4914f6cdd1d) >> 56)
}

func (r *refInterp) readVec(buf []byte, addr, n int) []fixed.Num {
	return fixed.FromBytes(buf[addr:], n)
}

func (r *refInterp) writeVec(buf []byte, addr int, v []fixed.Num) {
	fixed.ToBytes(v, buf[addr:])
}

// step interprets one instruction (no control flow in the tested subset).
func (r *refInterp) step(t *testing.T, inst core.Instruction) {
	t.Helper()
	tail := func(idx int) int32 {
		if inst.TailImm {
			return inst.Imm
		}
		return r.gpr[inst.R[idx]]
	}
	addr := func(i int) int { return int(r.gpr[inst.R[i]]) }
	size := func(i int) int { return int(r.gpr[inst.R[i]]) }
	switch inst.Op {
	case core.SMOVE:
		r.gpr[inst.R[0]] = tail(1)
	case core.SADD:
		r.gpr[inst.R[0]] = r.gpr[inst.R[1]] + tail(2)
	case core.SSUB:
		r.gpr[inst.R[0]] = r.gpr[inst.R[1]] - tail(2)
	case core.SMUL:
		r.gpr[inst.R[0]] = r.gpr[inst.R[1]] * tail(2)
	case core.SDIV:
		r.gpr[inst.R[0]] = r.gpr[inst.R[1]] / tail(2)
	case core.SEXP:
		r.gpr[inst.R[0]] = int32(fixed.Exp(fixed.Num(tail(1))))
	case core.SLOG:
		r.gpr[inst.R[0]] = int32(fixed.Log(fixed.Num(tail(1))))
	case core.SGT:
		r.gpr[inst.R[0]] = b2i(r.gpr[inst.R[1]] > tail(2))
	case core.SE:
		r.gpr[inst.R[0]] = b2i(r.gpr[inst.R[1]] == tail(2))
	case core.SAND:
		r.gpr[inst.R[0]] = b2i(r.gpr[inst.R[1]] != 0 && tail(2) != 0)

	case core.SLOAD:
		a := addr(1) + int(inst.Imm)
		b := r.main[a : a+4]
		r.gpr[inst.R[0]] = int32(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
	case core.SSTORE:
		a := addr(1) + int(inst.Imm)
		v := uint32(r.gpr[inst.R[0]])
		r.main[a], r.main[a+1], r.main[a+2], r.main[a+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)

	case core.VLOAD, core.MLOAD:
		dst := r.vspad
		if inst.Op == core.MLOAD {
			dst = r.mspad
		}
		copy(dst[addr(0):addr(0)+2*size(1)], r.main[addr(2)+int(inst.Imm):])
	case core.VSTORE, core.MSTORE:
		src := r.vspad
		if inst.Op == core.MSTORE {
			src = r.mspad
		}
		copy(r.main[addr(2)+int(inst.Imm):], src[addr(0):addr(0)+2*size(1)])
	case core.VMOVE, core.MMOVE:
		buf := r.vspad
		if inst.Op == core.MMOVE {
			buf = r.mspad
		}
		tmp := make([]byte, 2*size(1))
		copy(tmp, buf[addr(2):])
		copy(buf[addr(0):], tmp)

	case core.VAV, core.VSV, core.VMV, core.VDV, core.VGT, core.VE,
		core.VAND, core.VOR, core.VGTM:
		n := size(1)
		a := r.readVec(r.vspad, addr(2), n)
		b := r.readVec(r.vspad, addr(3), n)
		out := make([]fixed.Num, n)
		for i := range out {
			switch inst.Op {
			case core.VAV:
				out[i] = fixed.Add(a[i], b[i])
			case core.VSV:
				out[i] = fixed.Sub(a[i], b[i])
			case core.VMV:
				out[i] = fixed.Mul(a[i], b[i])
			case core.VDV:
				out[i] = fixed.Div(a[i], b[i])
			case core.VGT:
				out[i] = n2b(a[i] > b[i])
			case core.VE:
				out[i] = n2b(a[i] == b[i])
			case core.VAND:
				out[i] = n2b(a[i] != 0 && b[i] != 0)
			case core.VOR:
				out[i] = n2b(a[i] != 0 || b[i] != 0)
			case core.VGTM:
				out[i] = a[i]
				if b[i] > a[i] {
					out[i] = b[i]
				}
			}
		}
		r.writeVec(r.vspad, addr(0), out)
	case core.VAS:
		n := size(1)
		a := r.readVec(r.vspad, addr(2), n)
		s := fixed.Num(tail(3))
		out := make([]fixed.Num, n)
		for i := range out {
			out[i] = fixed.Add(a[i], s)
		}
		r.writeVec(r.vspad, addr(0), out)
	case core.VEXP, core.VLOG, core.VNOT:
		n := size(1)
		a := r.readVec(r.vspad, addr(2), n)
		out := make([]fixed.Num, n)
		for i := range out {
			switch inst.Op {
			case core.VEXP:
				out[i] = fixed.Exp(a[i])
			case core.VLOG:
				out[i] = fixed.Log(a[i])
			case core.VNOT:
				out[i] = n2b(a[i] == 0)
			}
		}
		r.writeVec(r.vspad, addr(0), out)
	case core.VDOT:
		n := size(1)
		r.gpr[inst.R[0]] = int32(fixed.Dot(
			r.readVec(r.vspad, addr(2), n), r.readVec(r.vspad, addr(3), n)))
	case core.RV:
		n := size(1)
		out := make([]fixed.Num, n)
		for i := range out {
			out[i] = r.rand()
		}
		r.writeVec(r.vspad, addr(0), out)
	case core.VMAX, core.VMIN:
		n := size(1)
		a := r.readVec(r.vspad, addr(2), n)
		best := a[0]
		for _, v := range a[1:] {
			if (inst.Op == core.VMAX && v > best) || (inst.Op == core.VMIN && v < best) {
				best = v
			}
		}
		r.gpr[inst.R[0]] = int32(best)

	case core.MMV, core.VMM:
		outN, inN := size(1), size(4)
		rows, cols := outN, inN
		if inst.Op == core.VMM {
			rows, cols = inN, outN
		}
		mat := r.readVec(r.mspad, addr(2), rows*cols)
		vin := r.readVec(r.vspad, addr(3), inN)
		out := make([]fixed.Num, outN)
		if inst.Op == core.MMV {
			for i := 0; i < outN; i++ {
				out[i] = fixed.Dot(mat[i*cols:(i+1)*cols], vin)
			}
		} else {
			for j := 0; j < outN; j++ {
				var acc fixed.Acc
				for i := 0; i < inN; i++ {
					acc += fixed.MulAcc(vin[i], mat[i*cols+j])
				}
				out[j] = fixed.AccSat(acc)
			}
		}
		r.writeVec(r.vspad, addr(0), out)
	case core.MMS:
		n := size(1)
		a := r.readVec(r.mspad, addr(2), n)
		s := fixed.Num(tail(3))
		out := make([]fixed.Num, n)
		for i := range out {
			out[i] = fixed.Mul(a[i], s)
		}
		r.writeVec(r.mspad, addr(0), out)
	case core.OP:
		n0, n1 := size(2), size(4)
		v0 := r.readVec(r.vspad, addr(1), n0)
		v1 := r.readVec(r.vspad, addr(3), n1)
		out := make([]fixed.Num, n0*n1)
		for i := 0; i < n0; i++ {
			for j := 0; j < n1; j++ {
				out[i*n1+j] = fixed.Mul(v0[i], v1[j])
			}
		}
		r.writeVec(r.mspad, addr(0), out)
	case core.MAM, core.MSM:
		n := size(1)
		a := r.readVec(r.mspad, addr(2), n)
		b := r.readVec(r.mspad, addr(3), n)
		out := make([]fixed.Num, n)
		for i := range out {
			if inst.Op == core.MAM {
				out[i] = fixed.Add(a[i], b[i])
			} else {
				out[i] = fixed.Sub(a[i], b[i])
			}
		}
		r.writeVec(r.mspad, addr(0), out)
	default:
		t.Fatalf("refInterp: unexpected opcode %v", inst.Op)
	}
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

func n2b(b bool) fixed.Num {
	if b {
		return fixed.One
	}
	return 0
}

// Register pools for random program generation.
const (
	dpSizeReg = 0  // 0..3: sizes (1..64)
	dpVReg    = 8  // 8..15: vector scratchpad addresses
	dpMReg    = 16 // 16..23: matrix scratchpad addresses
	dpBaseReg = 24 // 24..27: main-memory bases
	dpValReg  = 32 // 32..47: scalar values
	dpDstReg  = 48 // 48..60: scalar destinations
)

// randDiffInst draws one instruction from the memory-safe computational
// subset. Every address pool is bounded so that the largest possible
// operand (64x64 matrix) stays in range.
func randDiffInst(rng *rand.Rand) core.Instruction {
	pick := func(base, n int) uint8 { return uint8(base + rng.Intn(n)) }
	sizeR := func() uint8 { return pick(dpSizeReg, 4) }
	vR := func() uint8 { return pick(dpVReg, 8) }
	mR := func() uint8 { return pick(dpMReg, 8) }
	baseR := func() uint8 { return pick(dpBaseReg, 4) }
	valR := func() uint8 { return pick(dpValReg, 16) }
	dstR := func() uint8 { return pick(dpDstReg, 13) }
	imm16 := func() int32 { return int32(rng.Intn(1<<16) - 1<<15) }

	switch rng.Intn(20) {
	case 0:
		return core.NewRI(core.SMOVE, imm16(), valR())
	case 1:
		ops := []core.Opcode{core.SADD, core.SSUB, core.SMUL, core.SGT, core.SE, core.SAND}
		return core.NewR(ops[rng.Intn(len(ops))], dstR(), valR(), valR())
	case 2:
		// SDIV only with a non-zero immediate divisor.
		d := int32(rng.Intn(100) + 1)
		if rng.Intn(2) == 0 {
			d = -d
		}
		return core.NewRI(core.SDIV, d, dstR(), valR())
	case 3:
		op := core.SEXP
		if rng.Intn(2) == 0 {
			op = core.SLOG
		}
		return core.NewR(op, dstR(), valR())
	case 4:
		return core.NewRI(core.SLOAD, int32(rng.Intn(1024)*4), dstR(), baseR())
	case 5:
		return core.NewRI(core.SSTORE, int32(rng.Intn(1024)*4), valR(), baseR())
	case 6:
		op := core.VLOAD
		if rng.Intn(2) == 0 {
			op = core.VSTORE
		}
		return core.NewRI(op, int32(rng.Intn(2048)*2), vR(), sizeR(), baseR())
	case 7:
		op := core.MLOAD
		if rng.Intn(2) == 0 {
			op = core.MSTORE
		}
		return core.NewRI(op, int32(rng.Intn(2048)*2), mR(), sizeR(), baseR())
	case 8:
		return core.NewR(core.VMOVE, vR(), sizeR(), vR())
	case 9:
		return core.NewR(core.MMOVE, mR(), sizeR(), mR())
	case 10:
		ops := []core.Opcode{core.VAV, core.VSV, core.VMV, core.VDV,
			core.VGT, core.VE, core.VAND, core.VOR, core.VGTM}
		return core.NewR(ops[rng.Intn(len(ops))], vR(), sizeR(), vR(), vR())
	case 11:
		return core.NewRI(core.VAS, imm16(), vR(), sizeR(), vR())
	case 12:
		ops := []core.Opcode{core.VEXP, core.VLOG, core.VNOT}
		return core.NewR(ops[rng.Intn(len(ops))], vR(), sizeR(), vR())
	case 13:
		return core.NewR(core.VDOT, dstR(), sizeR(), vR(), vR())
	case 14:
		return core.NewR(core.RV, vR(), sizeR())
	case 15:
		op := core.VMAX
		if rng.Intn(2) == 0 {
			op = core.VMIN
		}
		return core.NewR(op, dstR(), sizeR(), vR())
	case 16:
		op := core.MMV
		if rng.Intn(2) == 0 {
			op = core.VMM
		}
		return core.NewR(op, vR(), sizeR(), mR(), vR(), sizeR())
	case 17:
		return core.NewRI(core.MMS, imm16(), mR(), sizeR(), mR())
	case 18:
		return core.NewR(core.OP, mR(), vR(), sizeR(), vR(), sizeR())
	default:
		op := core.MAM
		if rng.Intn(2) == 0 {
			op = core.MSM
		}
		return core.NewR(op, mR(), sizeR(), mR(), mR())
	}
}

// TestDifferentialAgainstReferenceInterpreter runs random straight-line
// programs on both implementations — the machine loads each through
// LoadProgram and runs it unobserved — and compares every architectural
// bit. The reference interpreter is the run loop's oracle.
func TestDifferentialAgainstReferenceInterpreter(t *testing.T) {
	const (
		trials  = 150
		instLen = 200
	)
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 1000))
		seed := rng.Uint64() | 1

		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.MainMemBytes = 1 << 20 // the generator stays far below 1 MB
		m := mustNew(t, cfg)
		ref := newRefInterp(seed)

		// Identical random register setup: sizes 1..64, even scratchpad
		// addresses in safe windows, even main bases, arbitrary scalars.
		setGPR := func(r uint8, v int32) {
			m.SetGPR(r, uint32(v))
			ref.gpr[r] = v
		}
		for i := 0; i < 4; i++ {
			setGPR(uint8(dpSizeReg+i), int32(rng.Intn(64)+1))
		}
		for i := 0; i < 8; i++ {
			setGPR(uint8(dpVReg+i), int32(rng.Intn(8192)*2))
		}
		for i := 0; i < 8; i++ {
			setGPR(uint8(dpMReg+i), int32(rng.Intn(16384)*2))
		}
		for i := 0; i < 4; i++ {
			setGPR(uint8(dpBaseReg+i), int32(rng.Intn(8192)*2))
		}
		for i := 0; i < 16; i++ {
			setGPR(uint8(dpValReg+i), int32(rng.Uint32()>>16)-1<<15)
		}

		prog := make([]core.Instruction, instLen)
		for i := range prog {
			prog[i] = randDiffInst(rng)
		}
		m.LoadProgram(prog)
		if _, err := m.Run(); err != nil {
			t.Fatalf("trial %d: machine error: %v\n(program: %v)", trial, err, prog)
		}
		for _, inst := range prog {
			ref.step(t, inst)
		}

		// Compare all architectural state.
		for r := 0; r < core.NumGPRs; r++ {
			if int32(m.GPR(uint8(r))) != ref.gpr[r] {
				t.Fatalf("trial %d: $%d = %d, reference %d", trial, r,
					int32(m.GPR(uint8(r))), ref.gpr[r])
			}
		}
		compareRegion(t, trial, "vspad", m, ref.vspad[:40<<10], func(a, n int) []fixed.Num {
			v, err := m.ReadVectorSpad(a, n)
			if err != nil {
				t.Fatal(err)
			}
			return v
		})
		compareRegion(t, trial, "mspad", m, ref.mspad[:96<<10], func(a, n int) []fixed.Num {
			v, err := m.ReadMatrixSpad(a, n)
			if err != nil {
				t.Fatal(err)
			}
			return v
		})
		compareRegion(t, trial, "main", m, ref.main[:64<<10], func(a, n int) []fixed.Num {
			v, err := m.ReadMainNums(a, n)
			if err != nil {
				t.Fatal(err)
			}
			return v
		})
	}
}

// compareRegion checks one memory space element by element.
func compareRegion(t *testing.T, trial int, name string, m *Machine,
	want []byte, read func(addr, n int) []fixed.Num) {
	t.Helper()
	const chunk = 4096
	for base := 0; base < len(want); base += 2 * chunk {
		got := read(base, chunk)
		ref := fixed.FromBytes(want[base:], chunk)
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("trial %d: %s[%d] = %v, reference %v",
					trial, name, base+2*i, got[i], ref[i])
			}
		}
	}
}

// comparePaths runs one program on two machines under identical
// configurations and fails the test unless every architectural bit and
// every statistic agrees: observing a run must never perturb it. The
// observed machine has a text trace attached (written to
// io.Discard) and a never-fired watchdog armed; the other runs the shared
// decoded program with nothing attached.
func comparePaths(t *testing.T, label string, cfg Config, prog []core.Instruction,
	setup func(set func(r uint8, v int32))) {
	t.Helper()
	observedCfg := cfg
	observedCfg.MaxCycles = 1 << 40 // arms the watchdog without ever tripping it
	observed := mustNew(t, observedCfg)
	observed.SetTracer(trace.NewText(io.Discard))
	plain := mustNew(t, cfg)
	if setup != nil {
		setup(func(r uint8, v int32) {
			observed.SetGPR(r, uint32(v))
			plain.SetGPR(r, uint32(v))
		})
	}
	dp, err := Predecode(prog)
	if err != nil {
		t.Fatalf("%s: predecode: %v", label, err)
	}
	observed.LoadDecoded(dp)
	plain.LoadDecoded(dp)

	wantStats, wantErr := observed.Run()
	gotStats, gotErr := plain.Run()
	if (wantErr == nil) != (gotErr == nil) ||
		(wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("%s: errors diverge: observed %v, unobserved %v", label, wantErr, gotErr)
	}
	if !reflect.DeepEqual(wantStats, gotStats) {
		t.Fatalf("%s: stats diverge:\nobserved   %+v\nunobserved %+v", label, wantStats, gotStats)
	}
	for r := 0; r < core.NumGPRs; r++ {
		if observed.GPR(uint8(r)) != plain.GPR(uint8(r)) {
			t.Fatalf("%s: $%d = %d, observed run %d", label, r,
				int32(plain.GPR(uint8(r))), int32(observed.GPR(uint8(r))))
		}
	}
	compareMachineSpaces(t, label, observed, plain)
}

// compareMachineSpaces checks every byte of both scratchpads and the
// first 64 KB of main memory between two machines.
func compareMachineSpaces(t *testing.T, label string, want, got *Machine) {
	t.Helper()
	spaces := []struct {
		name  string
		bytes int
		read  func(m *Machine, a, n int) ([]fixed.Num, error)
	}{
		{"vspad", core.VectorSpadBytes, (*Machine).ReadVectorSpad},
		{"mspad", core.MatrixSpadBytes, (*Machine).ReadMatrixSpad},
		{"main", 64 << 10, (*Machine).ReadMainNums},
	}
	const chunk = 4096
	for _, sp := range spaces {
		for base := 0; base < sp.bytes; base += 2 * chunk {
			w, err := sp.read(want, base, chunk)
			if err != nil {
				t.Fatal(err)
			}
			g, err := sp.read(got, base, chunk)
			if err != nil {
				t.Fatal(err)
			}
			for i := range w {
				if w[i] != g[i] {
					t.Fatalf("%s: %s[%d] = %v, want %v",
						label, sp.name, base+2*i, g[i], w[i])
				}
			}
		}
	}
}

// TestPredecodedISATour runs the 43-instruction ISA tour observed and
// unobserved and demands bit-identical results.
func TestPredecodedISATour(t *testing.T) {
	p := mustAssemble(t, tourSrc)
	comparePaths(t, "isa-tour", DefaultConfig(), p.Instructions, nil)
}

// TestPredecodedDifferentialCorpus replays the random straight-line
// corpus of TestDifferentialAgainstReferenceInterpreter observed and
// unobserved. The unobserved run is already proven against the naive
// reference interpreter above, so agreement here extends the
// differential chain to observed runs.
func TestPredecodedDifferentialCorpus(t *testing.T) {
	const (
		trials  = 60
		instLen = 200
	)
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 1000))
		seed := rng.Uint64() | 1

		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.MainMemBytes = 1 << 20

		// Draw the register setup before the program, in the same order
		// as the reference-interpreter test, so the rng stream — and
		// therefore the corpus — is identical between the two tests.
		type regInit struct {
			r uint8
			v int32
		}
		var inits []regInit
		for i := 0; i < 4; i++ {
			inits = append(inits, regInit{uint8(dpSizeReg + i), int32(rng.Intn(64) + 1)})
		}
		for i := 0; i < 8; i++ {
			inits = append(inits, regInit{uint8(dpVReg + i), int32(rng.Intn(8192) * 2)})
		}
		for i := 0; i < 8; i++ {
			inits = append(inits, regInit{uint8(dpMReg + i), int32(rng.Intn(16384) * 2)})
		}
		for i := 0; i < 4; i++ {
			inits = append(inits, regInit{uint8(dpBaseReg + i), int32(rng.Intn(8192) * 2)})
		}
		for i := 0; i < 16; i++ {
			inits = append(inits, regInit{uint8(dpValReg + i), int32(rng.Uint32()>>16) - 1<<15})
		}
		prog := make([]core.Instruction, instLen)
		for i := range prog {
			prog[i] = randDiffInst(rng)
		}
		comparePaths(t, fmt.Sprintf("corpus-%d", trial), cfg, prog,
			func(set func(r uint8, v int32)) {
				for _, in := range inits {
					set(in.r, in.v)
				}
			})
	}
}

// TestPredecodedControlFlow runs random counter-controlled loops observed
// and unobserved. Backward branches land on arbitrary body instructions,
// so the text trace and the watchdog see taken branches.
func TestPredecodedControlFlow(t *testing.T) {
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 7700))
		cfg := DefaultConfig()
		cfg.Seed = rng.Uint64() | 1
		cfg.MainMemBytes = 1 << 20

		iters := rng.Intn(6) + 2
		bodyLen := rng.Intn(12) + 3
		prog := make([]core.Instruction, 0, bodyLen+2)
		for i := 0; i < bodyLen; i++ {
			prog = append(prog, randDiffInst(rng))
		}
		prog = append(prog,
			core.NewRI(core.SADD, -1, 62, 62),
			core.NewRI(core.CB, int32(-(bodyLen+1)), 62),
		)
		comparePaths(t, fmt.Sprintf("loop-%d", trial), cfg, prog,
			func(set func(r uint8, v int32)) {
				for i := 0; i < 4; i++ {
					set(uint8(dpSizeReg+i), int32(rng.Intn(32)+1))
				}
				for i := 0; i < 8; i++ {
					set(uint8(dpVReg+i), int32(rng.Intn(4096)*2))
				}
				for i := 0; i < 8; i++ {
					set(uint8(dpMReg+i), int32(rng.Intn(4096)*2))
				}
				for i := 0; i < 4; i++ {
					set(uint8(dpBaseReg+i), int32(rng.Intn(4096)*2))
				}
				for i := 0; i < 16; i++ {
					set(uint8(dpValReg+i), int32(rng.Intn(1<<16))-1<<15)
				}
				set(62, int32(iters))
			})
	}
}

// TestDifferentialWithControlFlow extends the differential check to bounded
// loops: a counter-controlled loop wraps a random straight-line body, and
// the reference interpreter executes the same dynamic stream (it unrolls
// the loop the same number of times).
func TestDifferentialWithControlFlow(t *testing.T) {
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 9000))
		seed := rng.Uint64() | 1

		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.MainMemBytes = 1 << 20
		m := mustNew(t, cfg)
		ref := newRefInterp(seed)

		setGPR := func(r uint8, v int32) {
			m.SetGPR(r, uint32(v))
			ref.gpr[r] = v
		}
		for i := 0; i < 4; i++ {
			setGPR(uint8(dpSizeReg+i), int32(rng.Intn(32)+1))
		}
		for i := 0; i < 8; i++ {
			setGPR(uint8(dpVReg+i), int32(rng.Intn(4096)*2))
		}
		for i := 0; i < 8; i++ {
			setGPR(uint8(dpMReg+i), int32(rng.Intn(4096)*2))
		}
		for i := 0; i < 4; i++ {
			setGPR(uint8(dpBaseReg+i), int32(rng.Intn(4096)*2))
		}
		for i := 0; i < 16; i++ {
			setGPR(uint8(dpValReg+i), int32(rng.Intn(1<<16))-1<<15)
		}

		// Loop structure: $62 = iterations; body; SADD $62 -1; CB top.
		iters := rng.Intn(6) + 2
		setGPR(62, int32(iters))
		bodyLen := rng.Intn(12) + 3
		body := make([]core.Instruction, bodyLen)
		for i := range body {
			body[i] = randDiffInst(rng)
		}
		prog := append([]core.Instruction{}, body...)
		prog = append(prog,
			core.NewRI(core.SADD, -1, 62, 62),
			core.NewRI(core.CB, int32(-(bodyLen+1)), 62),
		)

		m.LoadProgram(prog)
		if _, err := m.Run(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for it := 0; it < iters; it++ {
			for _, inst := range body {
				ref.step(t, inst)
			}
			ref.gpr[62]--
		}
		for r := 0; r < core.NumGPRs; r++ {
			if int32(m.GPR(uint8(r))) != ref.gpr[r] {
				t.Fatalf("trial %d: $%d = %d, reference %d", trial, r,
					int32(m.GPR(uint8(r))), ref.gpr[r])
			}
		}
		compareRegion(t, trial, "vspad", m, ref.vspad[:16<<10], func(a, n int) []fixed.Num {
			v, err := m.ReadVectorSpad(a, n)
			if err != nil {
				t.Fatal(err)
			}
			return v
		})
		compareRegion(t, trial, "main", m, ref.main[:32<<10], func(a, n int) []fixed.Num {
			v, err := m.ReadMainNums(a, n)
			if err != nil {
				t.Fatal(err)
			}
			return v
		})
	}
}
