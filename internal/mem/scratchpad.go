// Package mem models the memory system of the Cambricon-ACC prototype
// (Section IV): the vector and matrix on-chip scratchpad memories with
// low-order-bit banking and the Fig. 9 crossbar, main memory, and the DMA
// engines that move data between them.
package mem

import (
	"fmt"
	"math/bits"

	"cambricon/internal/fixed"
)

// Scratchpad is an on-chip software-managed memory. Following Fig. 9, each
// scratchpad is decomposed into Banks banks interleaved on the low-order
// bits of the *bank-line* address, connected to its ports through a crossbar
// that serializes simultaneous accesses to the same bank.
//
// A Scratchpad is purely functional storage plus a conflict model: timing
// integration lives in internal/sim.
type Scratchpad struct {
	paged
	banks     int
	bankShift int // log2(banks)
	lineBytes int
	perBank   []int // reusable conflict counters (Scratchpad is not concurrency-safe)

	// onConflict, when set, observes crossbar serialization: it receives
	// the busiest bank of an access set and the cycles that bank was
	// busy beyond the ideal parallel streaming cost. nil (the default)
	// adds no work to AccessCycles.
	onConflict func(bank, extraCycles int)
}

// NewScratchpad builds a scratchpad of size bytes with the given bank count
// and bank line width in bytes (Table II: bank width 512 bits = 64 bytes).
// Geometry comes from user-supplied configuration, so bad values are
// returned as errors rather than panicking.
func NewScratchpad(name string, size, banks, lineBytes int) (*Scratchpad, error) {
	if size <= 0 || banks <= 0 || lineBytes <= 0 {
		return nil, fmt.Errorf("mem: invalid scratchpad geometry %d/%d/%d", size, banks, lineBytes)
	}
	if banks&(banks-1) != 0 {
		return nil, fmt.Errorf("mem: bank count %d must be a power of two", banks)
	}
	return &Scratchpad{paged: paged{name: name, data: make([]byte, size)}, banks: banks,
		bankShift: bits.TrailingZeros(uint(banks)), lineBytes: lineBytes, perBank: make([]int, banks)}, nil
}

// Name returns the scratchpad's diagnostic name.
func (s *Scratchpad) Name() string { return s.name }

// SetConflictHook registers fn to observe bank conflicts: whenever an
// AccessCycles access set serializes through the crossbar beyond its
// ideal streaming cost, fn receives the busiest bank and the extra
// cycles it was responsible for. nil disables observation (the
// default). The hook is how the simulator's tracing layer builds its
// bank-conflict heatmap without the scratchpad knowing about tracing.
func (s *Scratchpad) SetConflictHook(fn func(bank, extraCycles int)) { s.onConflict = fn }

// FlipBit flips one bit of the scratchpad's storage: bit (mod 8) of the
// byte at addr. It reports whether addr was inside the scratchpad. This
// is the fault-injection hook — a transient upset in an SRAM cell — and
// deliberately bypasses the access-size checks real transfers go
// through.
func (s *Scratchpad) FlipBit(addr int, bit uint8) bool {
	if addr < 0 || addr >= len(s.data) {
		return false
	}
	s.markDirty(addr, 1)
	s.data[addr] ^= 1 << (bit % 8)
	return true
}

// NumsView returns count elements starting at byte address addr as a
// zero-copy view of the scratchpad storage whenever the host memory layout
// matches the storage format (little-endian, element-aligned base); it
// falls back to decoding into *spill (grown as needed, never shrunk)
// otherwise, so the call is allocation-free once spill has warmed up.
//
// The returned slice must be treated as read-only and aliases the
// scratchpad: a subsequent WriteBytes/WriteNums over the same region is
// visible through the view, so callers must finish all reads through a
// view before writing to the scratchpad (the simulator's execute functions
// read every operand before storing their result, which is what makes the
// view safe even when an instruction's output overlaps its inputs). A
// Scratchpad is not safe for concurrent use, so there are no concurrent
// writers to guard against by construction.
func (s *Scratchpad) NumsView(addr, count int, spill *[]fixed.Num) ([]fixed.Num, error) {
	n := fixed.Bytes(count)
	if err := s.Check(addr, n); err != nil {
		return nil, err
	}
	if ns, ok := fixed.ViewBytes(s.data[addr:addr+n], count); ok {
		return ns, nil
	}
	if cap(*spill) < count {
		*spill = make([]fixed.Num, count)
	}
	dst := (*spill)[:count]
	fixed.FromBytesInto(s.data[addr:addr+n], dst)
	return dst, nil
}

// AccessCycles returns the number of scratchpad cycles needed to service the
// given concurrent port accesses, each described by its byte region. With no
// bank conflicts every port proceeds in parallel and the cost is the maximum
// line count of any single access; conflicting line accesses to the same
// bank serialize through the crossbar.
//
// A region's consecutive lines go to consecutive banks, so its count per
// bank is in closed form: every bank serves lines / banks of them, and
// the lines % banks banks from its first line's bank on serve one more.
// The cost per region is O(banks), not O(lines).
func (s *Scratchpad) AccessCycles(regions []Region) int {
	perBank := s.perBank
	mask := s.banks - 1
	for i := range perBank {
		perBank[i] = 0
	}
	longest := 0
	for _, r := range regions {
		if r.N <= 0 {
			continue
		}
		first := r.Addr / s.lineBytes
		last := (r.Addr + r.N - 1) / s.lineBytes
		lines := last - first + 1
		if lines > longest {
			longest = lines
		}
		if whole := lines >> s.bankShift; whole > 0 {
			for b := range perBank {
				perBank[b] += whole
			}
		}
		for b, k := first&mask, lines&mask; k > 0; b, k = (b+1)&mask, k-1 {
			perBank[b]++
		}
	}
	// Each bank has a single port: total cycles is the busiest bank, but
	// never less than the longest single streaming access (lines within one
	// access to the same bank already serialize and are counted above).
	busiest, busiestBank := 0, 0
	for b, n := range perBank {
		if n > busiest {
			busiest, busiestBank = n, b
		}
	}
	if s.onConflict != nil && busiest > longest {
		s.onConflict(busiestBank, busiest-longest)
	}
	if busiest < longest {
		busiest = longest
	}
	return busiest
}

// Region is a byte-addressed memory extent.
type Region struct {
	Addr int
	N    int
}

// Overlaps reports whether two regions intersect. Zero-length regions never
// overlap anything.
func (r Region) Overlaps(o Region) bool {
	if r.N <= 0 || o.N <= 0 {
		return false
	}
	return r.Addr < o.Addr+o.N && o.Addr < r.Addr+r.N
}
