package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"math/bits"

	"cambricon/internal/fixed"
)

// PageBytes is the dirty-tracking granule of every memory: a restore
// copies whole pages, so the value trades bitmap size (16 MiB / 4 KiB =
// 4096 pages = 64 words for main memory) against copy amplification for
// small writes.
const PageBytes = 4096

// zeroPage is what SparseImage compares each page against: the runtime's
// vectorized memequal keeps the scan of every capture fast and
// independent of where the linker places this code, which a byte loop
// was not (its speed moved by a third with its address).
var zeroPage [PageBytes]byte

// paged is the storage main memory and both scratchpads are built on:
// a byte array cut into PageBytes pages, the bounds-checked accessors
// every transfer goes through, and one dirty bit per page behind
// snapshot/restore warm-starts and convergence proofs.
type paged struct {
	name string
	data []byte

	// dirty is the page bitmap: when non-nil every write marks its
	// pages, and RestoreFromSparse copies back only marked pages instead
	// of the whole memory. nil (the default) disables tracking and adds a
	// single predicted branch per write.
	dirty []uint64
}

// pageSpan returns the byte range of page p, clamped to the capacity
// (the last page may be short), and whether p is a page of the memory.
func (t *paged) pageSpan(p int) (lo, hi int, ok bool) {
	lo = p * PageBytes
	if p < 0 || lo >= len(t.data) {
		return 0, 0, false
	}
	return lo, min(lo+PageBytes, len(t.data)), true
}

// Check validates an access region, returning the error every accessor
// reports for it. Addressing errors are program bugs surfaced as errors
// so the simulator can report the faulting instruction. The simulator
// also calls Check before it sizes a buffer from a register-held length,
// so an out-of-range access fails without allocating.
func (t *paged) Check(addr, n int) error {
	if n < 0 {
		return fmt.Errorf("mem: %s: negative access size %d", t.name, n)
	}
	if addr < 0 || addr+n > len(t.data) {
		return fmt.Errorf("mem: %s: access [%d, %d) outside capacity %d", t.name, addr, addr+n, len(t.data))
	}
	return nil
}

// ReadBytesInto copies len(dst) bytes starting at addr into dst without
// allocating.
func (t *paged) ReadBytesInto(addr int, dst []byte) error {
	if err := t.Check(addr, len(dst)); err != nil {
		return err
	}
	copy(dst, t.data[addr:addr+len(dst)])
	return nil
}

// WriteBytes stores b at addr.
func (t *paged) WriteBytes(addr int, b []byte) error {
	if err := t.Check(addr, len(b)); err != nil {
		return err
	}
	t.markDirty(addr, len(b))
	copy(t.data[addr:], b)
	return nil
}

// BytesView returns the n bytes at addr as a view of the storage,
// without copying: the source of a transfer. The view must not be
// written, and it sees later writes to the region.
func (t *paged) BytesView(addr, n int) ([]byte, error) {
	if err := t.Check(addr, n); err != nil {
		return nil, err
	}
	return t.data[addr : addr+n], nil
}

// WriteView returns the n bytes at addr as a writable view of the
// storage, with their pages already marked dirty: the destination of a
// transfer, which copies into it in place. Write it before the next
// snapshot or restore of the memory, which the dirty marks describe.
func (t *paged) WriteView(addr, n int) ([]byte, error) {
	if err := t.Check(addr, n); err != nil {
		return nil, err
	}
	t.markDirty(addr, n)
	return t.data[addr : addr+n], nil
}

// ReadNums reads count 16-bit fixed-point elements starting at byte
// address addr.
func (t *paged) ReadNums(addr, count int) ([]fixed.Num, error) {
	n := fixed.Bytes(count)
	if err := t.Check(addr, n); err != nil {
		return nil, err
	}
	return fixed.FromBytes(t.data[addr:addr+n], count), nil
}

// WriteNums stores fixed-point elements at byte address addr.
func (t *paged) WriteNums(addr int, ns []fixed.Num) error {
	n := fixed.Bytes(len(ns))
	if err := t.Check(addr, n); err != nil {
		return err
	}
	t.markDirty(addr, n)
	dst := t.data[addr : addr+n]
	// Where reads alias the storage (Scratchpad.NumsView), a write is
	// one copy.
	if view, ok := fixed.ViewBytes(dst, len(ns)); ok {
		copy(view, ns)
		return nil
	}
	fixed.ToBytes(ns, dst)
	return nil
}

// SparseImage is a page-sparse copy of a memory's contents: only the
// 4 KiB pages holding at least one nonzero byte are stored, each in a
// slice of its own. Benchmarks touch well under 1 MiB of the 16 MiB main
// memory and a few pages of each scratchpad, so a sparse image is a
// small fraction of a dense copy. An image captured relative to another
// (SparseImageFrom) holds the other's slice for every page it did not
// copy, so two images that hold the same slice for a page hold the same
// bytes there. A SparseImage is immutable once captured and safe to
// share across goroutines.
type SparseImage struct {
	size int
	// pages maps a page index to its stored contents; pages absent from
	// the map are all-zero. Only the memory's last page may be short.
	pages map[int][]byte
}

// Size returns the capacity of the memory the image was captured from.
func (s *SparseImage) Size() int { return s.size }

// Bytes returns the resident size of the image — the bytes it stores,
// what a dense copy of len Size() collapses to. A page the image shares
// with another image counts in both.
func (s *SparseImage) Bytes() int {
	n := 0
	for _, b := range s.pages {
		n += len(b)
	}
	return n
}

// Page returns the stored contents of page p, or nil when the page is
// all-zero. The returned slice aliases the image and must not be mutated.
func (s *SparseImage) Page(p int) []byte { return s.pages[p] }

// samePage reports whether a and b are one stored slice, which holds one
// content: a page shared by reference between two images.
func samePage(a, b []byte) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

// ZeroSparseImage builds the sparse image of an all-zero memory of the
// given size — no pages resident. Restoring it zeroes the target, which
// is how the bench pool synthesizes a pristine (post-construction)
// snapshot without ever capturing one from a machine.
func ZeroSparseImage(size int) *SparseImage {
	return &SparseImage{size: size, pages: map[int][]byte{}}
}

// SparseImage captures the current contents as a page-sparse image
// (snapshot capture), testing every page for a nonzero byte.
func (t *paged) SparseImage() *SparseImage {
	var nonzero []int
	for p := 0; ; p++ {
		lo, hi, ok := t.pageSpan(p)
		if !ok {
			break
		}
		if !bytes.Equal(t.data[lo:hi], zeroPage[:hi-lo]) {
			nonzero = append(nonzero, p)
		}
	}
	s := &SparseImage{size: len(t.data), pages: make(map[int][]byte, len(nonzero))}
	t.storePages(s, nonzero)
	return s
}

// SparseImageFrom captures the current contents relative to base, the
// image the memory was last restored from or captured into: with
// tracking live the contents are base plus the dirty pages, so only the
// dirty pages are tested and copied, a dirty page that is all-zero again
// is dropped, and every other page of base is shared by reference.
// Without tracking, or with a nil base or one of another capacity,
// there is no such relation and it captures like SparseImage.
func (t *paged) SparseImageFrom(base *SparseImage) *SparseImage {
	if t.dirty == nil || base == nil || base.size != len(t.data) {
		return t.SparseImage()
	}
	s := &SparseImage{size: len(t.data), pages: maps.Clone(base.pages)}
	var nonzero []int
	for w, word := range t.dirty {
		for ; word != 0; word &= word - 1 {
			p := w<<6 + bits.TrailingZeros64(word)
			lo, hi, _ := t.pageSpan(p)
			if bytes.Equal(t.data[lo:hi], zeroPage[:hi-lo]) {
				delete(s.pages, p)
			} else {
				nonzero = append(nonzero, p)
			}
		}
	}
	t.storePages(s, nonzero)
	return s
}

// storePages copies pages into s, all of them in one allocation.
func (t *paged) storePages(s *SparseImage, pages []int) {
	n := 0
	for _, p := range pages {
		lo, hi, _ := t.pageSpan(p)
		n += hi - lo
	}
	buf := make([]byte, n)
	for _, p := range pages {
		lo, hi, _ := t.pageSpan(p)
		k := copy(buf, t.data[lo:hi])
		s.pages[p], buf = buf[:k:k], buf[k:]
	}
}

// Tracking reports whether dirty-page tracking is active — i.e. whether
// the contents are provably "last restored image + dirty pages", the
// invariant delta snapshot switches and convergence proofs rely on.
func (t *paged) Tracking() bool { return t.dirty != nil }

// BeginDirtyTracking clears and (re)enables write tracking: after the
// call, RestoreFromSparse copies back only pages written since. The
// bitmap is allocated once and reused.
func (t *paged) BeginDirtyTracking() {
	if t.dirty == nil {
		pages := (len(t.data) + PageBytes - 1) / PageBytes
		t.dirty = make([]uint64, (pages+63)/64)
		return
	}
	clear(t.dirty)
}

// DropDirtyTracking disables write tracking; the next RestoreFromSparse
// rebuilds the whole memory. Used when a machine switches to a snapshot
// its contents are not known relative to.
func (t *paged) DropDirtyTracking() { t.dirty = nil }

// markDirty records the pages of a write region. Callers validate the
// region first, so the page range is always inside the bitmap.
func (t *paged) markDirty(addr, n int) {
	if t.dirty == nil || n <= 0 {
		return
	}
	for p := addr / PageBytes; p <= (addr+n-1)/PageBytes; p++ {
		t.dirty[p>>6] |= 1 << (uint(p) & 63)
	}
}

// MarkChangedPages marks dirty every page that from and to do not
// share by reference (no-op without tracking): a page stored by one image
// only, or by both in different slices. With the contents "from + dirty
// pages", that bounds every page that can differ from to, which lets
// RestoreFromSparse switch a tracked memory from one image to the other
// with a dirty-walk instead of a full rebuild. Images captured relative
// to each other share their unchanged pages, so a switch between them
// copies only the pages that changed; unrelated images share none.
func (t *paged) MarkChangedPages(from, to *SparseImage) {
	if t.dirty == nil {
		return
	}
	for p, b := range from.pages {
		if !samePage(b, to.pages[p]) {
			t.dirty[p>>6] |= 1 << (uint(p) & 63)
		}
	}
	for p := range to.pages {
		if _, ok := from.pages[p]; !ok {
			t.dirty[p>>6] |= 1 << (uint(p) & 63)
		}
	}
}

// RestoreFromSparse reinstates a SparseImage of this memory: with dirty
// tracking active only pages written since the last snapshot/restore are
// touched (copied back from the image, or zeroed when the image does not
// store them) and the bitmap is cleared; without tracking the whole
// memory is rebuilt and tracking begins. It returns the number of bytes
// written — the measure of how much the page bitmap saved.
func (t *paged) RestoreFromSparse(img *SparseImage) (int, error) {
	if img.size != len(t.data) {
		return 0, fmt.Errorf("mem: %s: restore image is %d bytes, capacity %d", t.name, img.size, len(t.data))
	}
	if t.dirty == nil {
		for p := 0; ; p++ {
			lo, hi, ok := t.pageSpan(p)
			if !ok {
				break
			}
			t.restorePage(img, p, lo, hi)
		}
		t.BeginDirtyTracking()
		return len(t.data), nil
	}
	written := 0
	for w, word := range t.dirty {
		if word == 0 {
			continue
		}
		t.dirty[w] = 0
		for ; word != 0; word &= word - 1 {
			p := w<<6 + bits.TrailingZeros64(word)
			lo, hi, _ := t.pageSpan(p)
			t.restorePage(img, p, lo, hi)
			written += hi - lo
		}
	}
	return written, nil
}

// restorePage copies page p, spanning [lo, hi), back from img, or
// zeroes it when img does not store it.
func (t *paged) restorePage(img *SparseImage, p, lo, hi int) {
	if src := img.Page(p); src != nil {
		copy(t.data[lo:hi], src)
	} else {
		clear(t.data[lo:hi])
	}
}

// AppendDirtyPages appends the indices of every page written since the
// last snapshot/restore to buf, ascending, and reports whether tracking
// is active (without tracking there is no dirty set to enumerate and ok
// is false). The bitmap is left untouched — this is a read-only view
// for convergence checks, not a restore.
func (t *paged) AppendDirtyPages(buf []int) ([]int, bool) {
	if t.dirty == nil {
		return buf, false
	}
	for w, word := range t.dirty {
		for ; word != 0; word &= word - 1 {
			buf = append(buf, w<<6+bits.TrailingZeros64(word))
		}
	}
	return buf, true
}

// AppendPageDiffWords compares page p with the image's page p (all-zero
// when the image does not store it) and appends to buf the memory-wide
// indices of the differing 16-bit words, in ascending order. It gives up
// (ok false) once buf would hold more than limit words, or when the page
// is out of range or the image has another capacity, so a limit of 0
// asks whether the page is equal. buf is returned either way so its
// capacity can be reused. Convergence proofs call it on every page that
// can differ and ask whether each surviving word is ever read again.
func (t *paged) AppendPageDiffWords(buf []int, img *SparseImage, p, limit int) ([]int, bool) {
	if img == nil || img.size != len(t.data) {
		return buf, false
	}
	lo, hi, ok := t.pageSpan(p)
	if !ok {
		return buf, false
	}
	live, want := t.data[lo:hi], img.Page(p)
	if want == nil {
		want = zeroPage[:hi-lo]
	}
	if bytes.Equal(live, want) {
		return buf, true
	}
	base := lo / 2
	i := 0
	for ; i+8 <= len(live); i += 8 {
		x := binary.LittleEndian.Uint64(live[i:]) ^ binary.LittleEndian.Uint64(want[i:])
		for k := 0; x != 0; k, x = k+1, x>>16 {
			if x&0xffff == 0 {
				continue
			}
			if len(buf) >= limit {
				return buf, false
			}
			buf = append(buf, base+i/2+k)
		}
	}
	// A short last page: at most 7 bytes, the last one possibly half a
	// word.
	for ; i < len(live); i += 2 {
		if live[i] != want[i] || (i+1 < len(live) && live[i+1] != want[i+1]) {
			if len(buf) >= limit {
				return buf, false
			}
			buf = append(buf, base+i/2)
		}
	}
	return buf, true
}
