package mem

import (
	"bytes"
	"fmt"
	"math/bits"
	"sort"

	"cambricon/internal/fixed"
)

// PageBytes is the dirty-tracking granule of Main: restore-from-snapshot
// copies whole pages, so the value trades bitmap size (16 MiB / 4 KiB =
// 4096 pages = 64 words) against copy amplification for small writes.
const PageBytes = 4096

// zeroPage is what SparseImage compares each page against: the runtime's
// vectorized memequal keeps the scan of every capture fast and
// independent of where the linker places this code, which a byte loop
// was not (its speed moved by a third with its address).
var zeroPage [PageBytes]byte

// Main is the off-chip main memory. The prototype accesses it only through
// load/store instructions (Cambricon is a load-store architecture,
// Section II-B). Addresses are byte addresses; scalar accesses are 32-bit,
// vector/matrix accesses move 16-bit fixed-point element blocks via DMA.
type Main struct {
	data []byte

	// dirty is the page bitmap behind snapshot/restore warm-starts: when
	// non-nil every write marks its pages, and RestoreFrom copies back
	// only marked pages instead of the whole memory. nil (the default)
	// disables tracking and adds a single predicted branch per write.
	dirty []uint64
}

// NewMain allocates a main memory of size bytes. The size comes from
// user-supplied configuration, so a bad value is returned as an error
// rather than panicking.
func NewMain(size int) (*Main, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mem: invalid main memory size %d", size)
	}
	return &Main{data: make([]byte, size)}, nil
}

// Size returns the capacity in bytes.
func (m *Main) Size() int { return len(m.data) }

// Image returns a copy of the full memory contents (snapshot capture).
func (m *Main) Image() []byte {
	img := make([]byte, len(m.data))
	copy(img, m.data)
	return img
}

// SparseImage is a page-sparse copy of a Main's contents: only the
// 4 KiB pages holding at least one nonzero byte are stored. Benchmarks
// touch well under 1 MiB of the 16 MiB address space, so a sparse image
// is ~20x smaller resident than the dense Image it replaces in
// sim.Snapshot. A SparseImage is immutable once captured and safe to
// share across goroutines.
type SparseImage struct {
	size int
	// pos maps a page index to its offset (in pages) within data; pages
	// absent from the map are all-zero. data packs the stored pages
	// contiguously (the last stored page may be short when size is not
	// page-aligned).
	pos  map[int]int
	data []byte
}

// Size returns the capacity of the memory the image was captured from.
func (s *SparseImage) Size() int { return s.size }

// Pages returns the number of stored (nonzero) pages.
func (s *SparseImage) Pages() int { return len(s.pos) }

// Bytes returns the resident size of the image — the bytes actually
// stored, what a dense Image of len Size() collapses to.
func (s *SparseImage) Bytes() int { return len(s.data) }

// page returns the stored contents of page p, or nil when the page is
// all-zero.
func (s *SparseImage) page(p int) []byte {
	i, ok := s.pos[p]
	if !ok {
		return nil
	}
	lo := i * PageBytes
	hi := lo + PageBytes
	if hi > len(s.data) {
		hi = len(s.data)
	}
	return s.data[lo:hi]
}

// SparseImage captures the current memory contents as a page-sparse
// image (snapshot capture; the sparse counterpart of Image).
func (m *Main) SparseImage() *SparseImage {
	var nonzero []int
	for p, off := 0, 0; off < len(m.data); p, off = p+1, off+PageBytes {
		hi := off + PageBytes
		if hi > len(m.data) {
			hi = len(m.data)
		}
		if !bytes.Equal(m.data[off:hi], zeroPage[:hi-off]) {
			nonzero = append(nonzero, p)
		}
	}
	s := &SparseImage{size: len(m.data), pos: make(map[int]int, len(nonzero))}
	// The final stored page is the only one allowed to be short, so a
	// short (unaligned) last memory page is packed last regardless of
	// capture order — here order is ascending, which already guarantees it.
	for i, p := range nonzero {
		s.pos[p] = i
		lo := p * PageBytes
		hi := lo + PageBytes
		if hi > len(m.data) {
			hi = len(m.data)
		}
		s.data = append(s.data, m.data[lo:hi]...)
	}
	return s
}

// StoredPages returns the indices of the stored (nonzero) pages in
// ascending order — the iteration order checkpoint serialization uses so
// identical images always serialize to identical bytes.
func (s *SparseImage) StoredPages() []int {
	pages := make([]int, 0, len(s.pos))
	for p := range s.pos {
		pages = append(pages, p)
	}
	sort.Ints(pages)
	return pages
}

// Page returns the stored contents of page p, or nil when the page is
// all-zero. The returned slice aliases the image and must not be mutated.
func (s *SparseImage) Page(p int) []byte { return s.page(p) }

// BuildSparseImage reconstructs an image from its serialized parts: the
// memory capacity and the stored pages in ascending index order. Every
// page must be full PageBytes except possibly the last (the packing
// invariant SparseImage capture establishes); violations are errors so a
// corrupted checkpoint cannot build a malformed image.
func BuildSparseImage(size int, pages []int, contents [][]byte) (*SparseImage, error) {
	if len(pages) != len(contents) {
		return nil, fmt.Errorf("mem: sparse image: %d page indices, %d page contents", len(pages), len(contents))
	}
	s := &SparseImage{size: size, pos: make(map[int]int, len(pages))}
	lastPage := (size + PageBytes - 1) / PageBytes
	prev := -1
	for i, p := range pages {
		if p <= prev || p < 0 || p >= lastPage {
			return nil, fmt.Errorf("mem: sparse image: bad page index %d (prev %d, pages %d)", p, prev, lastPage)
		}
		prev = p
		want := PageBytes
		if hi := (p + 1) * PageBytes; hi > size {
			want = size - p*PageBytes
		}
		if len(contents[i]) != want {
			return nil, fmt.Errorf("mem: sparse image: page %d is %d bytes, want %d", p, len(contents[i]), want)
		}
		s.pos[p] = i
		s.data = append(s.data, contents[i]...)
	}
	return s, nil
}

// ZeroSparseImage builds the sparse image of an all-zero memory of the
// given size — no pages resident. Restoring it zeroes the target, which
// is how the bench pool synthesizes a pristine (post-construction)
// snapshot without ever capturing one from a machine.
func ZeroSparseImage(size int) *SparseImage {
	return &SparseImage{size: size, pos: map[int]int{}}
}

// Tracking reports whether dirty-page tracking is active — i.e. whether
// the memory's contents are provably "last restored image + dirty pages",
// the invariant delta snapshot switches rely on.
func (m *Main) Tracking() bool { return m.dirty != nil }

// MarkPagesDirty marks every page the image stores as dirty (no-op
// without tracking). Marking the resident pages of both the previously
// restored image and the next one — on top of whatever the machine
// dirtied since — bounds every page that can differ between the current
// contents and the next image, which lets RestoreFromSparse switch a
// tracked memory between snapshots with a dirty-walk instead of a full
// 16 MiB rebuild.
func (m *Main) MarkPagesDirty(img *SparseImage) {
	if m.dirty == nil || img == nil {
		return
	}
	for p := range img.pos {
		m.dirty[p>>6] |= 1 << (uint(p) & 63)
	}
}

// RestoreFromSparse reinstates a SparseImage of this memory: with dirty
// tracking active only pages written since the last snapshot/restore are
// touched (copied back from the image, or zeroed when the image does not
// store them); without tracking the whole memory is rebuilt and tracking
// begins. Returns the number of bytes written, the dirty-page saving
// measure, exactly like RestoreFrom.
func (m *Main) RestoreFromSparse(img *SparseImage) (int, error) {
	if img.size != len(m.data) {
		return 0, fmt.Errorf("mem: main: restore image is %d bytes, capacity %d", img.size, len(m.data))
	}
	if m.dirty == nil {
		for p, off := 0, 0; off < len(m.data); p, off = p+1, off+PageBytes {
			hi := off + PageBytes
			if hi > len(m.data) {
				hi = len(m.data)
			}
			if src := img.page(p); src != nil {
				copy(m.data[off:hi], src)
			} else {
				zero(m.data[off:hi])
			}
		}
		m.BeginDirtyTracking()
		return len(m.data), nil
	}
	written := 0
	for w, word := range m.dirty {
		if word == 0 {
			continue
		}
		m.dirty[w] = 0
		for ; word != 0; word &= word - 1 {
			p := w<<6 + bits.TrailingZeros64(word)
			lo := p * PageBytes
			hi := lo + PageBytes
			if hi > len(m.data) {
				hi = len(m.data)
			}
			if src := img.page(p); src != nil {
				written += copy(m.data[lo:hi], src)
			} else {
				zero(m.data[lo:hi])
				written += hi - lo
			}
		}
	}
	return written, nil
}

// zero clears a byte slice (compiles to memclr).
func zero(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// BeginDirtyTracking clears and (re)enables write tracking: after the
// call, RestoreFrom copies back only pages written since. The bitmap is
// allocated once and reused.
func (m *Main) BeginDirtyTracking() {
	pages := (len(m.data) + PageBytes - 1) / PageBytes
	if m.dirty == nil {
		m.dirty = make([]uint64, (pages+63)/64)
		return
	}
	for i := range m.dirty {
		m.dirty[i] = 0
	}
}

// DropDirtyTracking disables write tracking; the next RestoreFrom falls
// back to a full copy. Used when a machine switches to a different
// snapshot, whose image it has never held.
func (m *Main) DropDirtyTracking() { m.dirty = nil }

// markDirty records the pages of a write region. Callers validate the
// region first, so the page range is always inside the bitmap.
func (m *Main) markDirty(addr, n int) {
	if m.dirty == nil || n <= 0 {
		return
	}
	for p := addr / PageBytes; p <= (addr+n-1)/PageBytes; p++ {
		m.dirty[p>>6] |= 1 << (uint(p) & 63)
	}
}

// AppendDirtyPages appends the indices of every page written since the
// last snapshot/restore to buf and reports whether tracking is active
// (without tracking there is no dirty set to enumerate and ok is
// false). The bitmap is left untouched — this is a read-only view for
// convergence checks, not a restore.
func (m *Main) AppendDirtyPages(buf []int) ([]int, bool) {
	if m.dirty == nil {
		return buf, false
	}
	for w, word := range m.dirty {
		for ; word != 0; word &= word - 1 {
			buf = append(buf, w<<6+bits.TrailingZeros64(word))
		}
	}
	return buf, true
}

// PageEquals reports whether the live contents of page p equal the
// image's page p (absent pages are all-zero). Out-of-range pages or a
// capacity mismatch compare unequal, so callers degrade conservatively.
func (m *Main) PageEquals(img *SparseImage, p int) bool {
	if img == nil || img.size != len(m.data) {
		return false
	}
	lo := p * PageBytes
	hi := lo + PageBytes
	if hi > len(m.data) {
		hi = len(m.data)
	}
	if lo < 0 || lo >= hi {
		return false
	}
	live := m.data[lo:hi]
	if src := img.page(p); src != nil {
		return bytes.Equal(live, src)
	}
	for _, b := range live {
		if b != 0 {
			return false
		}
	}
	return true
}

// RestoreFrom reinstates img (a prior Image of this memory): with
// tracking active only dirty pages are copied and the bitmap is cleared;
// without tracking the whole memory is copied and tracking begins. It
// returns the number of bytes copied — the measure of how much the page
// bitmap saved.
func (m *Main) RestoreFrom(img []byte) (int, error) {
	if len(img) != len(m.data) {
		return 0, fmt.Errorf("mem: main: restore image is %d bytes, capacity %d", len(img), len(m.data))
	}
	if m.dirty == nil {
		copy(m.data, img)
		m.BeginDirtyTracking()
		return len(m.data), nil
	}
	copied := 0
	for w, word := range m.dirty {
		if word == 0 {
			continue
		}
		m.dirty[w] = 0
		for ; word != 0; word &= word - 1 {
			p := w<<6 + bits.TrailingZeros64(word)
			lo := p * PageBytes
			hi := lo + PageBytes
			if hi > len(m.data) {
				hi = len(m.data)
			}
			copied += copy(m.data[lo:hi], img[lo:hi])
		}
	}
	return copied, nil
}

// Check validates an access region, returning the error every accessor
// reports for it.
func (m *Main) Check(addr, n int) error {
	if n < 0 {
		return fmt.Errorf("mem: main: negative access size %d", n)
	}
	if addr < 0 || addr+n > len(m.data) {
		return fmt.Errorf("mem: main: access [%d, %d) outside capacity %d", addr, addr+n, len(m.data))
	}
	return nil
}

// ReadBytes copies n bytes at addr.
func (m *Main) ReadBytes(addr, n int) ([]byte, error) {
	if err := m.Check(addr, n); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, m.data[addr:addr+n])
	return out, nil
}

// ReadBytesInto copies len(dst) bytes at addr into dst without allocating.
func (m *Main) ReadBytesInto(addr int, dst []byte) error {
	if err := m.Check(addr, len(dst)); err != nil {
		return err
	}
	copy(dst, m.data[addr:addr+len(dst)])
	return nil
}

// Diff compares len(want) bytes at addr with want in place, without
// allocating, and returns the offset of the first differing byte, or -1
// when they are equal.
func (m *Main) Diff(addr int, want []byte) (int, error) {
	if err := m.Check(addr, len(want)); err != nil {
		return 0, err
	}
	got := m.data[addr : addr+len(want)]
	if bytes.Equal(got, want) {
		return -1, nil
	}
	for i := range want {
		if got[i] != want[i] {
			return i, nil
		}
	}
	return -1, nil
}

// WriteBytes stores b at addr.
func (m *Main) WriteBytes(addr int, b []byte) error {
	if err := m.Check(addr, len(b)); err != nil {
		return err
	}
	m.markDirty(addr, len(b))
	copy(m.data[addr:], b)
	return nil
}

// ReadWord reads a 32-bit little-endian word (scalar load).
func (m *Main) ReadWord(addr int) (uint32, error) {
	if err := m.Check(addr, 4); err != nil {
		return 0, err
	}
	b := m.data[addr:]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil
}

// WriteWord stores a 32-bit little-endian word (scalar store).
func (m *Main) WriteWord(addr int, v uint32) error {
	if err := m.Check(addr, 4); err != nil {
		return err
	}
	m.markDirty(addr, 4)
	m.data[addr] = byte(v)
	m.data[addr+1] = byte(v >> 8)
	m.data[addr+2] = byte(v >> 16)
	m.data[addr+3] = byte(v >> 24)
	return nil
}

// ReadNums reads count fixed-point elements at byte address addr.
func (m *Main) ReadNums(addr, count int) ([]fixed.Num, error) {
	n := fixed.Bytes(count)
	if err := m.Check(addr, n); err != nil {
		return nil, err
	}
	return fixed.FromBytes(m.data[addr:addr+n], count), nil
}

// ReadNumsInto reads len(dst) elements at byte address addr into dst
// without allocating.
func (m *Main) ReadNumsInto(addr int, dst []fixed.Num) error {
	n := fixed.Bytes(len(dst))
	if err := m.Check(addr, n); err != nil {
		return err
	}
	fixed.FromBytesInto(m.data[addr:addr+n], dst)
	return nil
}

// WriteNums stores fixed-point elements at byte address addr.
func (m *Main) WriteNums(addr int, ns []fixed.Num) error {
	n := fixed.Bytes(len(ns))
	if err := m.Check(addr, n); err != nil {
		return err
	}
	m.markDirty(addr, n)
	fixed.ToBytes(ns, m.data[addr:addr+n])
	return nil
}

// DMA models one scratchpad DMA engine: a fixed startup latency plus a
// bandwidth-limited streaming phase. The prototype's vector/matrix units
// each integrate three operand DMAs and the scratchpads an IO DMA
// (Section IV); all share this timing shape.
type DMA struct {
	// StartupCycles is the fixed request latency before data streams.
	StartupCycles int
	// BytesPerCycle is the streaming bandwidth.
	BytesPerCycle int
}

// TransferCycles returns the cycle cost of moving n bytes.
func (d DMA) TransferCycles(n int) int {
	if n <= 0 {
		return 0
	}
	bpc := d.BytesPerCycle
	if bpc <= 0 {
		bpc = 1
	}
	return d.StartupCycles + (n+bpc-1)/bpc
}
