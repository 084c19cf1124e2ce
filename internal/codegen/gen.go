// Package codegen lowers the ten Table III benchmark networks (plus the
// Section VI logistic-regression extension) to runnable Cambricon assembly.
//
// The paper translated each benchmark "manually into assemblers"; this
// package automates the same lowering so the programs are reproducible,
// inspectable (generators emit commented assembly text through
// internal/asm's Builder) and testable: every generated program carries its
// main-memory image and the reference outputs (from internal/nn) it must
// reproduce on the internal/sim accelerator within fixed-point tolerance.
//
// The static lengths of these programs are the Cambricon side of the
// Fig. 10 code-density comparison, and their instruction-type mixes are the
// Fig. 11 measurement.
package codegen

import (
	"encoding/binary"
	"fmt"
	"math"

	"cambricon/internal/asm"
	"cambricon/internal/core"
	"cambricon/internal/fixed"
	"cambricon/internal/sim"
)

// Chunk is data placed in main memory before a run.
type Chunk struct {
	Addr int
	Data []fixed.Num
}

// Result is one declared output region in main memory. The regions, in
// declaration order, are the whole of a run's output: Output serializes
// exactly these bytes and Verify reads nothing else.
type Result struct {
	// Name labels the region in error messages.
	Name string
	// Addr and N locate the output in main memory (N elements).
	Addr, N int
	// Want is the reference expectation (from internal/nn, computed over
	// fixed-point-quantized parameters). nil means the region is read by
	// the program's Checks instead.
	Want []float64
	// Tol is the maximum absolute element error. Zero means exact.
	Tol float64
}

// Program is one generated benchmark.
type Program struct {
	// Name is the Table III benchmark name.
	Name string
	// Source is the generated assembly listing.
	Source string
	// Asm is the assembled program.
	Asm *asm.Program
	// Chunks is the main-memory image.
	Chunks []Chunk
	// Results declare the output regions and their expectations.
	Results []Result
	// Checks are additional custom validations run after Results. They
	// see only the declared output regions.
	Checks []func(out Outputs) error
}

// Len returns the static code length (the Fig. 10 metric).
func (p *Program) Len() int { return p.Asm.Len() }

// TypeMix returns static instruction counts per Fig. 11 category.
func (p *Program) TypeMix() map[core.Type]int { return p.Asm.TypeMix() }

// Init writes the program's data image into the machine's main memory.
func (p *Program) Init(m *sim.Machine) error {
	for _, c := range p.Chunks {
		if err := m.WriteMainNums(c.Addr, c.Data); err != nil {
			return fmt.Errorf("codegen: %s: image chunk at %d: %w", p.Name, c.Addr, err)
		}
	}
	return nil
}

// outputBytes is the length of the program's serialized output.
func (p *Program) outputBytes() int {
	n := 0
	for _, r := range p.Results {
		n += fixed.Bytes(r.N)
	}
	return n
}

// Output serializes the declared output regions from main memory into buf
// (grown as needed): each element as its raw Q8.8 bits, little-endian,
// regions in declaration order — exactly the bytes the machine holds,
// since main memory stores elements little-endian. Byte equality of two
// serializations is exactly element-wise equality of all outputs.
func (p *Program) Output(m *sim.Machine, buf []byte) ([]byte, error) {
	total := p.outputBytes()
	if cap(buf) < total {
		buf = make([]byte, total)
	}
	buf = buf[:total]
	off := 0
	for _, r := range p.Results {
		n := fixed.Bytes(r.N)
		if err := m.ReadMainBytesInto(r.Addr, buf[off:off+n]); err != nil {
			return nil, fmt.Errorf("codegen: %s: output %q: %w", p.Name, r.Name, err)
		}
		off += n
	}
	return buf, nil
}

// Verify compares machine state against the program's expectations.
func (p *Program) Verify(m *sim.Machine) error {
	out, err := p.Output(m, nil)
	if err != nil {
		return err
	}
	return p.VerifyOutput(out)
}

// VerifyOutput checks a serialized output (see Output) against the
// program's expectations: each region with a Want within its tolerance,
// then every custom check.
func (p *Program) VerifyOutput(out []byte) error {
	if want := p.outputBytes(); len(out) != want {
		return fmt.Errorf("codegen: %s: output is %d bytes, want %d", p.Name, len(out), want)
	}
	off := 0
	for _, r := range p.Results {
		n := fixed.Bytes(r.N)
		if r.Want != nil {
			if len(r.Want) != r.N {
				return fmt.Errorf("codegen: %s: result %q: want length %d != N %d",
					p.Name, r.Name, len(r.Want), r.N)
			}
			for i, g := range fixed.Floats(fixed.FromBytes(out[off:off+n], r.N)) {
				if d := math.Abs(g - r.Want[i]); d > r.Tol {
					return fmt.Errorf("codegen: %s: result %q[%d] = %v, want %v (|err| %.4f > tol %.4f)",
						p.Name, r.Name, i, g, r.Want[i], d, r.Tol)
				}
			}
		}
		off += n
	}
	view := Outputs{results: p.Results, out: out}
	for i, check := range p.Checks {
		if err := check(view); err != nil {
			return fmt.Errorf("codegen: %s: check %d: %w", p.Name, i, err)
		}
	}
	return nil
}

// CompareOutput compares the declared output regions in m's main memory,
// in place, with want — the Output of a run that passed Verify. It
// allocates nothing unless they differ; the error then names the region
// and its first differing element.
func (p *Program) CompareOutput(m *sim.Machine, want []byte) error {
	if len(want) != p.outputBytes() {
		return fmt.Errorf("codegen: %s: recorded output is %d bytes, want %d", p.Name, len(want), p.outputBytes())
	}
	off := 0
	for _, r := range p.Results {
		n := fixed.Bytes(r.N)
		at, err := m.DiffMain(r.Addr, want[off:off+n])
		if err != nil {
			return fmt.Errorf("codegen: %s: output %q: %w", p.Name, r.Name, err)
		}
		if at >= 0 {
			e := at / 2
			got, err := m.ReadMainNums(r.Addr+fixed.Bytes(e), 1)
			if err != nil {
				return fmt.Errorf("codegen: %s: output %q: %w", p.Name, r.Name, err)
			}
			rec := fixed.FromBytes(want[off+fixed.Bytes(e):], 1)
			return fmt.Errorf("codegen: %s: output %q[%d] = %#04x, recorded %#04x",
				p.Name, r.Name, e, uint16(got[0]), uint16(rec[0]))
		}
		off += n
	}
	return nil
}

// Outputs is a read-only view of a serialized output (see Output),
// addressed by main-memory address. A read must lie inside one declared
// region.
type Outputs struct {
	results []Result
	out     []byte
}

// region returns the serialized bytes of main memory [addr, addr+n).
func (o Outputs) region(addr, n int) ([]byte, error) {
	off := 0
	for _, r := range o.results {
		size := fixed.Bytes(r.N)
		if n >= 0 && addr >= r.Addr && addr+n <= r.Addr+size {
			at := off + addr - r.Addr
			return o.out[at : at+n], nil
		}
		off += size
	}
	return nil, fmt.Errorf("read [%d, %d) outside the declared output regions", addr, addr+n)
}

// ReadNums decodes count fixed-point elements at main-memory address addr.
func (o Outputs) ReadNums(addr, count int) ([]fixed.Num, error) {
	b, err := o.region(addr, fixed.Bytes(count))
	if err != nil {
		return nil, err
	}
	return fixed.FromBytes(b, count), nil
}

// ReadWord decodes the 32-bit little-endian word at main-memory address
// addr.
func (o Outputs) ReadWord(addr int) (uint32, error) {
	b, err := o.region(addr, 4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

// Execute initializes a machine, runs the program and verifies the outputs,
// returning the run statistics.
func (p *Program) Execute(m *sim.Machine) (sim.Stats, error) {
	if err := p.Init(m); err != nil {
		return sim.Stats{}, err
	}
	m.LoadProgram(p.Asm.Instructions)
	stats, err := m.Run()
	if err != nil {
		return stats, fmt.Errorf("codegen: %s: %w", p.Name, err)
	}
	if err := p.Verify(m); err != nil {
		return stats, err
	}
	return stats, nil
}

// finish assembles the builder output into a Program.
func finish(name string, b *asm.Builder, g *gen) (*Program, error) {
	src := b.Source()
	prog, err := asm.Assemble(src)
	if err != nil {
		return nil, fmt.Errorf("codegen: %s: %w\n%s", name, err, src)
	}
	return &Program{
		Name:    name,
		Source:  src,
		Asm:     prog,
		Chunks:  g.chunks,
		Results: g.results,
	}, nil
}

// alloc is a bump allocator over one address space.
type alloc struct {
	name      string
	next, cap int
}

// take reserves n bytes 64-byte aligned (one scratchpad bank line), keeping
// operand streams on distinct lines.
func (a *alloc) take(n int) int {
	const align = 64
	a.next = (a.next + align - 1) &^ (align - 1)
	addr := a.next
	a.next += n
	if a.cap > 0 && a.next > a.cap {
		panic(fmt.Sprintf("codegen: %s allocator overflow: %d > %d", a.name, a.next, a.cap))
	}
	return addr
}

// takeElems reserves n fixed-point elements.
func (a *alloc) takeElems(n int) int { return a.take(fixed.Bytes(n)) }

// gen carries shared generator state: allocators, the data image and the
// output regions being accumulated.
type gen struct {
	mainA   alloc
	vspadA  alloc
	mspadA  alloc
	chunks  []Chunk
	results []Result
}

func newGen() *gen {
	return &gen{
		mainA:  alloc{name: "main", next: 4096, cap: 16 << 20},
		vspadA: alloc{name: "vspad", cap: core.VectorSpadBytes},
		mspadA: alloc{name: "mspad", cap: core.MatrixSpadBytes},
	}
}

// data places values in main memory and returns their address.
func (g *gen) data(vals []float64) int {
	ns := fixed.FromFloats(vals)
	addr := g.mainA.takeElems(len(ns))
	g.chunks = append(g.chunks, Chunk{Addr: addr, Data: ns})
	return addr
}

// out reserves a main-memory output region and registers its expectation.
func (g *gen) out(name string, n int, want []float64, tol float64) int {
	addr := g.mainA.takeElems(n)
	g.results = append(g.results, Result{Name: name, Addr: addr, N: n, Want: want, Tol: tol})
	return addr
}

// outAddr reserves a main-memory output region with no expectation of its
// own: the program's custom checks read it.
func (g *gen) outAddr(name string, n int) int {
	addr := g.mainA.takeElems(n)
	g.results = append(g.results, Result{Name: name, Addr: addr, N: n})
	return addr
}

// fix converts a float constant to its fixed-point immediate encoding.
func fix(v float64) int32 { return int32(fixed.FromFloat(v)) }

// loadImm emits SMOVE reg, #v.
func loadImm(b *asm.Builder, r uint8, v int32) {
	b.Op(core.SMOVE, asm.R(r), asm.Imm(v))
}

// sigmoidRegs is the register set the sigmoid helper needs.
type sigmoidRegs struct {
	size uint8 // element count
	tmp  uint8 // scratch vspad address (size elements)
}

// emitSigmoid lowers y = sigmoid(x) = e^x / (1 + e^x) into the published
// three-instruction sequence (Section III-B): VEXP, VAS #1.0, VDV. dst and
// src are GPRs holding vspad addresses; dst may equal src.
func emitSigmoid(b *asm.Builder, dst, src uint8, r sigmoidRegs) {
	b.Opc(core.VEXP, "exp(x)", asm.R(r.tmp), asm.R(r.size), asm.R(src))
	b.Opc(core.VAS, "1 + exp(x)", asm.R(dst), asm.R(r.size), asm.R(r.tmp), asm.Imm(fix(1)))
	b.Opc(core.VDV, "exp(x)/(1+exp(x))", asm.R(dst), asm.R(r.size), asm.R(r.tmp), asm.R(dst))
}

// emitConstVecImm fills the region named by GPR dst with the constant v,
// by zeroing the region against itself (dst - dst is exact whatever it
// holds, so the caller must pass a region it is fine to overwrite) and
// adding v.
func emitConstVecImm(b *asm.Builder, dst, size uint8, v float64) {
	b.Opc(core.VSV, "zero the region", asm.R(dst), asm.R(size), asm.R(dst), asm.R(dst))
	b.Opc(core.VAS, fmt.Sprintf("fill with %.4g", v), asm.R(dst), asm.R(size), asm.R(dst), asm.Imm(fix(v)))
}
