package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"cambricon/internal/core"
	"cambricon/internal/fixed"
)

// Registers of the in-place programs: the first three load the
// scratchpad windows, the rest are the instruction's operands.
const (
	ipZero   = 1  // 0: scratchpad base and main-memory base of the vector window
	ipWindow = 2  // window length in elements
	ipMatSrc = 3  // main-memory base of the matrix window
	ipN      = 10 // operand length (MMV/VMM output length, OP rows)
	ipDst    = 11
	ipA      = 12
	ipB      = 13
	ipN2     = 14 // MMV/VMM input length, OP columns
	ipMat    = 15
)

// inPlaceWindow is the elements each scratchpad window holds.
const inPlaceWindow = 4096

// TestResultsInPlaceMatchReference runs VAV, VAS, MAM, MMS, OP, MMV and
// VMM with the destination equal to each input, overlapping the first
// input from below and from above, at an odd (misaligned) address and
// disjoint from every input. Equal and disjoint destinations are
// computed straight into the scratchpad; the others go through the
// machine's buffer. The scratchpads must equal the reference
// interpreter's, and an observed run (comparePaths) must produce the
// same Stats and memory as the unobserved one. Lengths cover the
// kernels' sixteen-word, eight-word and one-word steps.
func TestResultsInPlaceMatchReference(t *testing.T) {
	const (
		a    = 1024 // first input
		b    = 4096 // second input, disjoint from the first
		away = 6000 // a destination disjoint from every input
	)
	placements := []struct {
		name string
		dst  int
	}{
		{"equal-a", a},
		{"equal-b", b},
		{"below-a", a - 6},
		{"above-a", a + 6},
		{"misaligned", away + 1},
		{"disjoint", away},
	}
	cases := []struct {
		name  string
		n, n2 int // register sizes
		// two is set for instructions with a second input vector.
		two  bool
		inst core.Instruction
	}{
		{"VAV", 45, 0, true, core.NewR(core.VAV, ipDst, ipN, ipA, ipB)},
		{"VAS", 45, 0, false, core.NewRI(core.VAS, -300, ipDst, ipN, ipA)},
		{"MAM", 315, 0, true, core.NewR(core.MAM, ipDst, ipN, ipA, ipB)},
		{"MMS", 315, 0, false, core.NewRI(core.MMS, 700, ipDst, ipN, ipA)},
		{"OP", 7, 45, true, core.NewR(core.OP, ipDst, ipA, ipN, ipB, ipN2)},
		{"MMV", 21, 45, false, core.NewR(core.MMV, ipDst, ipN, ipMat, ipA, ipN2)},
		{"VMM", 45, 21, false, core.NewR(core.VMM, ipDst, ipN, ipMat, ipA, ipN2)},
	}
	rng := rand.New(rand.NewSource(11))
	data := make([]fixed.Num, 2*inPlaceWindow)
	for i := range data {
		switch rng.Intn(5) {
		case 0:
			data[i] = fixed.Min
		case 1:
			data[i] = fixed.Max
		default:
			data[i] = fixed.Num(rng.Intn(1 << 16))
		}
	}
	for _, c := range cases {
		for _, p := range placements {
			if p.dst == b && !c.two {
				continue
			}
			label := fmt.Sprintf("%s/%s", c.name, p.name)
			prog := []core.Instruction{
				core.NewRI(core.VLOAD, 0, ipZero, ipWindow, ipZero),
				core.NewRI(core.MLOAD, 0, ipZero, ipWindow, ipMatSrc),
				c.inst,
			}
			regs := map[uint8]int32{
				ipZero: 0, ipWindow: inPlaceWindow, ipMatSrc: 2 * inPlaceWindow,
				ipN: int32(c.n), ipN2: int32(c.n2), ipDst: int32(p.dst),
				ipA: a, ipB: b, ipMat: 0,
			}
			setup := func(set func(r uint8, v int32)) {
				for r, v := range regs {
					set(r, v)
				}
			}
			comparePaths(t, label, DefaultConfig(), prog, setup)

			m := mustNew(t, DefaultConfig())
			ref := newRefInterp(DefaultConfig().Seed)
			setup(func(r uint8, v int32) {
				m.SetGPR(r, uint32(v))
				ref.gpr[r] = v
			})
			if err := m.WriteMainNums(0, data); err != nil {
				t.Fatal(err)
			}
			fixed.ToBytes(data, ref.main)
			m.LoadProgram(prog)
			if _, err := m.Run(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for _, inst := range prog {
				ref.step(t, inst)
			}
			read := func(pad func(m *Machine, a, n int) ([]fixed.Num, error)) func(a, n int) []fixed.Num {
				return func(addr, n int) []fixed.Num {
					v, err := pad(m, addr, n)
					if err != nil {
						t.Fatal(err)
					}
					return v
				}
			}
			compareRegion(t, 0, label+" vspad", m, ref.vspad[:2*inPlaceWindow], read((*Machine).ReadVectorSpad))
			compareRegion(t, 0, label+" mspad", m, ref.mspad[:2*inPlaceWindow], read((*Machine).ReadMatrixSpad))
		}
	}
}
