// Package mem models the memory system of the Cambricon-ACC prototype
// (Section IV): the vector and matrix on-chip scratchpad memories with
// low-order-bit banking and the Fig. 9 crossbar, main memory, and the DMA
// engines that move data between them.
package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"

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
	name      string
	data      []byte
	banks     int
	lineBytes int
	perBank   []int // reusable conflict counters (Scratchpad is not concurrency-safe)

	// tracking/dirty implement whole-pad dirty tracking for
	// snapshot/restore warm-starts: scratchpads are small (64 KiB / 768
	// KiB) and almost every run streams through most of one, so a single
	// flag — skip the copy when the pad was never written — captures the
	// useful cases without per-page bookkeeping on the operand hot path.
	tracking bool
	dirty    bool

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
	return &Scratchpad{name: name, data: make([]byte, size), banks: banks,
		lineBytes: lineBytes, perBank: make([]int, banks)}, nil
}

// Name returns the scratchpad's diagnostic name.
func (s *Scratchpad) Name() string { return s.name }

// Size returns the capacity in bytes.
func (s *Scratchpad) Size() int { return len(s.data) }

// Banks returns the number of banks.
func (s *Scratchpad) Banks() int { return s.banks }

// Image returns a copy of the full scratchpad contents (snapshot capture).
func (s *Scratchpad) Image() []byte {
	img := make([]byte, len(s.data))
	copy(img, s.data)
	return img
}

// DiffWords compares the live scratchpad contents against img (a prior
// Image of this scratchpad) and appends the indices of the differing
// 16-bit words to a fresh slice, giving up (ok false) once more than max
// words differ or when img has the wrong length. An equal pad returns
// (nil, true) after a single bytes.Equal pass; convergence checks use
// the word list to ask whether each surviving difference is ever read
// again.
func (s *Scratchpad) DiffWords(img []byte, max int) (words []int, ok bool) {
	if len(img) != len(s.data) {
		return nil, false
	}
	if bytes.Equal(s.data, img) {
		return nil, true
	}
	i := 0
	for ; i+8 <= len(s.data); i += 8 {
		a := binary.LittleEndian.Uint64(s.data[i:])
		b := binary.LittleEndian.Uint64(img[i:])
		if x := a ^ b; x != 0 {
			for k := 0; k < 8; k += 2 {
				if x>>(8*uint(k))&0xffff != 0 {
					words = append(words, (i+k)/2)
					if len(words) > max {
						return nil, false
					}
				}
			}
		}
	}
	for ; i < len(s.data); i++ {
		if s.data[i] != img[i] {
			w := i / 2
			if len(words) == 0 || words[len(words)-1] != w {
				words = append(words, w)
				if len(words) > max {
					return nil, false
				}
			}
		}
	}
	return words, true
}

// BeginDirtyTracking clears and (re)enables write tracking: after the
// call, RestoreFrom skips the copy entirely when nothing was written
// since.
func (s *Scratchpad) BeginDirtyTracking() {
	s.tracking = true
	s.dirty = false
}

// DropDirtyTracking disables write tracking; the next RestoreFrom falls
// back to a full copy.
func (s *Scratchpad) DropDirtyTracking() { s.tracking = false }

// Tracking reports whether write tracking is active.
func (s *Scratchpad) Tracking() bool { return s.tracking }

// MarkDirty forces the next RestoreFrom to copy even if nothing was
// written (no-op without tracking). Used when a tracked scratchpad
// switches to a different snapshot image: the whole-pad granularity means
// the switch is a full pad copy, but tracking survives so later restores
// to the same image stay skippable.
func (s *Scratchpad) MarkDirty() {
	if s.tracking {
		s.dirty = true
	}
}

// RestoreFrom reinstates img (a prior Image of this scratchpad), copying
// only when the pad was written since BeginDirtyTracking (or when
// tracking is off), and returns the number of bytes copied.
func (s *Scratchpad) RestoreFrom(img []byte) (int, error) {
	if len(img) != len(s.data) {
		return 0, fmt.Errorf("mem: %s: restore image is %d bytes, capacity %d", s.name, len(img), len(s.data))
	}
	if s.tracking && !s.dirty {
		return 0, nil
	}
	s.tracking = true
	s.dirty = false
	return copy(s.data, img), nil
}

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
	s.dirty = true
	s.data[addr] ^= 1 << (bit % 8)
	return true
}

// Check validates an access region. Scratchpad addressing errors are
// program bugs surfaced as errors so the simulator can report the faulting
// instruction. The simulator also calls Check before it sizes a buffer
// from a register-held length, so an out-of-range access fails without
// allocating.
func (s *Scratchpad) Check(addr, n int) error {
	if n < 0 {
		return fmt.Errorf("mem: %s: negative access size %d", s.name, n)
	}
	if addr < 0 || addr+n > len(s.data) {
		return fmt.Errorf("mem: %s: access [%d, %d) outside capacity %d", s.name, addr, addr+n, len(s.data))
	}
	return nil
}

// ReadBytes copies n bytes starting at addr.
func (s *Scratchpad) ReadBytes(addr, n int) ([]byte, error) {
	if err := s.Check(addr, n); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, s.data[addr:addr+n])
	return out, nil
}

// ReadBytesInto copies len(dst) bytes starting at addr into dst without
// allocating.
func (s *Scratchpad) ReadBytesInto(addr int, dst []byte) error {
	if err := s.Check(addr, len(dst)); err != nil {
		return err
	}
	copy(dst, s.data[addr:addr+len(dst)])
	return nil
}

// WriteBytes stores b at addr.
func (s *Scratchpad) WriteBytes(addr int, b []byte) error {
	if err := s.Check(addr, len(b)); err != nil {
		return err
	}
	s.dirty = true
	copy(s.data[addr:], b)
	return nil
}

// ReadNums reads count 16-bit fixed-point elements starting at byte address
// addr.
func (s *Scratchpad) ReadNums(addr, count int) ([]fixed.Num, error) {
	n := fixed.Bytes(count)
	if err := s.Check(addr, n); err != nil {
		return nil, err
	}
	return fixed.FromBytes(s.data[addr:addr+n], count), nil
}

// ReadNumsInto reads len(dst) elements into dst without allocating.
func (s *Scratchpad) ReadNumsInto(addr int, dst []fixed.Num) error {
	n := fixed.Bytes(len(dst))
	if err := s.Check(addr, n); err != nil {
		return err
	}
	fixed.FromBytesInto(s.data[addr:addr+n], dst)
	return nil
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

// WriteNums stores fixed-point elements at byte address addr.
func (s *Scratchpad) WriteNums(addr int, ns []fixed.Num) error {
	n := fixed.Bytes(len(ns))
	if err := s.Check(addr, n); err != nil {
		return err
	}
	s.dirty = true
	dst := s.data[addr : addr+n]
	// Where reads alias the storage (NumsView), a write is one copy.
	if view, ok := fixed.ViewBytes(dst, len(ns)); ok {
		copy(view, ns)
		return nil
	}
	fixed.ToBytes(ns, dst)
	return nil
}

// AccessCycles returns the number of scratchpad cycles needed to service the
// given concurrent port accesses, each described by its byte region. With no
// bank conflicts every port proceeds in parallel and the cost is the maximum
// line count of any single access; conflicting line accesses to the same
// bank serialize through the crossbar.
func (s *Scratchpad) AccessCycles(regions []Region) int {
	perBank := s.perBank
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
		for line := first; line <= last; line++ {
			perBank[line&(s.banks-1)]++
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
