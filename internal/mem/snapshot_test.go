package mem

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"cambricon/internal/fixed"
)

// dirtyPages decodes a memory's page bitmap into page indices.
func dirtyPages(t *paged) []int {
	var pages []int
	for w, word := range t.dirty {
		for b := 0; b < 64; b++ {
			if word&(1<<uint(b)) != 0 {
				pages = append(pages, w*64+b)
			}
		}
	}
	return pages
}

// contents is a dense copy of a memory, for comparisons.
func contents(t *paged) []byte { return bytes.Clone(t.data) }

func TestMainDirtyTrackingMarksPages(t *testing.T) {
	m := newMainMem(t, 4*PageBytes)
	img := m.SparseImage()
	dense := contents(&m.paged)
	m.BeginDirtyTracking()

	// A small write inside page 1.
	if err := m.WriteWord(PageBytes+16, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	// A write spanning the page 2/3 boundary.
	if err := m.WriteBytes(3*PageBytes-2, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if got, want := dirtyPages(&m.paged), []int{1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("dirty pages = %v, want %v", got, want)
	}

	copied, err := m.RestoreFromSparse(img)
	if err != nil {
		t.Fatal(err)
	}
	if copied != 3*PageBytes {
		t.Fatalf("restore copied %d bytes, want %d (3 pages)", copied, 3*PageBytes)
	}
	if !bytes.Equal(m.data, dense) {
		t.Fatal("restored contents differ from image")
	}
	if pages := dirtyPages(&m.paged); len(pages) != 0 {
		t.Fatalf("bitmap not cleared after restore: %v", pages)
	}
	// Untouched restore copies nothing.
	copied, err = m.RestoreFromSparse(img)
	if err != nil {
		t.Fatal(err)
	}
	if copied != 0 {
		t.Fatalf("clean restore copied %d bytes, want 0", copied)
	}
}

func TestMainDirtyTrackingWriteNums(t *testing.T) {
	m := newMainMem(t, 2*PageBytes)
	m.BeginDirtyTracking()
	if err := m.WriteNums(0, fixed.FromFloats([]float64{1, 2, 3})); err != nil {
		t.Fatal(err)
	}
	got := dirtyPages(&m.paged)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("dirty pages = %v, want [0]", got)
	}
}

func TestMainRestoreWithoutTrackingCopiesAll(t *testing.T) {
	m := newMainMem(t, 2*PageBytes+100) // partial last page
	if err := m.WriteBytes(2*PageBytes+50, []byte{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	img := ZeroSparseImage(len(m.data))
	copied, err := m.RestoreFromSparse(img)
	if err != nil {
		t.Fatal(err)
	}
	if copied != len(m.data) {
		t.Fatalf("untracked restore copied %d bytes, want full %d", copied, len(m.data))
	}
	if !m.Tracking() {
		t.Fatal("untracked restore should begin tracking")
	}
	// The partial last page restores without overrunning the buffer.
	if err := m.WriteBytes(2*PageBytes+10, []byte{7}); err != nil {
		t.Fatal(err)
	}
	copied, err = m.RestoreFromSparse(img)
	if err != nil {
		t.Fatal(err)
	}
	if copied != 100 {
		t.Fatalf("partial-page restore copied %d bytes, want 100", copied)
	}
	if !bytes.Equal(m.data, make([]byte, len(m.data))) {
		t.Fatal("restored contents differ from image")
	}
}

func TestMainRestoreSizeMismatch(t *testing.T) {
	m := newMainMem(t, PageBytes)
	if _, err := m.RestoreFromSparse(ZeroSparseImage(PageBytes - 1)); err == nil ||
		!strings.Contains(err.Error(), "mem: main: restore image") {
		t.Fatalf("size-mismatch restore: err = %v", err)
	}
}

func TestSparseImageRoundTrip(t *testing.T) {
	m := newMainMem(t, 4*PageBytes+100) // partial last page
	if err := m.WriteWord(PageBytes+8, 0x01020304); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteBytes(4*PageBytes+96, []byte{5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	dense := contents(&m.paged)
	img := m.SparseImage()
	if img.Size() != len(m.data) {
		t.Fatalf("SparseImage.Size() = %d, want %d", img.Size(), len(m.data))
	}
	if len(img.pages) != 2 {
		t.Fatalf("SparseImage stores %d pages, want 2 (pages 1 and 4)", len(img.pages))
	}
	if want := PageBytes + 100; img.Bytes() != want {
		t.Fatalf("SparseImage.Bytes() = %d, want %d (one full + the short last page)", img.Bytes(), want)
	}

	// Untracked restore onto scribbled memory rebuilds everything,
	// including zero pages the image does not store.
	for i := 0; i < len(m.data); i += 37 {
		m.data[i] = 0xAA
	}
	m.DropDirtyTracking()
	written, err := m.RestoreFromSparse(img)
	if err != nil {
		t.Fatal(err)
	}
	if written != len(m.data) {
		t.Fatalf("untracked sparse restore wrote %d bytes, want full %d", written, len(m.data))
	}
	if !bytes.Equal(m.data, dense) {
		t.Fatal("sparse restore does not reproduce the dense image")
	}
	if !m.Tracking() {
		t.Fatal("untracked sparse restore should begin tracking")
	}

	// Tracked restore touches only dirty pages: one stored, one absent.
	if err := m.WriteWord(PageBytes+8, 0xffffffff); err != nil { // stored page
		t.Fatal(err)
	}
	if err := m.WriteWord(2*PageBytes, 0xffffffff); err != nil { // zero page
		t.Fatal(err)
	}
	written, err = m.RestoreFromSparse(img)
	if err != nil {
		t.Fatal(err)
	}
	if written != 2*PageBytes {
		t.Fatalf("tracked sparse restore wrote %d bytes, want %d (2 pages)", written, 2*PageBytes)
	}
	if !bytes.Equal(m.data, dense) {
		t.Fatal("tracked sparse restore does not reproduce the dense image")
	}
	// Clean restore is free.
	written, err = m.RestoreFromSparse(img)
	if err != nil {
		t.Fatal(err)
	}
	if written != 0 {
		t.Fatalf("clean sparse restore wrote %d bytes, want 0", written)
	}
}

func TestSparseRestoreSizeMismatch(t *testing.T) {
	s := newPad(t, "vspad", PageBytes, 4, 64)
	other := newPad(t, "mspad", 2*PageBytes, 4, 64)
	if _, err := s.RestoreFromSparse(other.SparseImage()); err == nil ||
		!strings.Contains(err.Error(), "mem: vspad: restore image") {
		t.Fatalf("size-mismatch sparse restore: err = %v", err)
	}
}

// TestScratchpadDirtyTracking pins that a scratchpad tracks pages like
// main memory: every write kind, a transfer's copy into a WriteView
// included, marks exactly the pages it touches, a
// restore rewrites only those (and zeroes a written page the image does
// not store), and without tracking a restore rebuilds the whole pad.
func TestScratchpadDirtyTracking(t *testing.T) {
	s := newPad(t, "vspad", 4*PageBytes+64, 4, 64) // short last page
	if err := s.WriteBytes(PageBytes, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	img := s.SparseImage()
	dense := contents(&s.paged)
	s.BeginDirtyTracking()

	// Clean pad: restore is free.
	copied, err := s.RestoreFromSparse(img)
	if err != nil {
		t.Fatal(err)
	}
	if copied != 0 {
		t.Fatalf("clean restore copied %d bytes, want 0", copied)
	}

	// Each write kind dirties the pages it touches, and only those.
	for _, d := range []struct {
		name  string
		write func()
		pages []int
		bytes int
	}{
		{"WriteBytes", func() { s.WriteBytes(2*PageBytes-1, []byte{9, 9}) }, []int{1, 2}, 2 * PageBytes},
		{"WriteNums", func() { s.WriteNums(0, fixed.FromFloats([]float64{4})) }, []int{0}, PageBytes},
		{"FlipBit", func() { s.FlipBit(4*PageBytes+5, 1) }, []int{4}, 64},
		{"WriteView", func() {
			v, _ := s.WriteView(3*PageBytes-2, 4)
			copy(v, []byte{5, 6, 7, 8})
		}, []int{2, 3}, 2 * PageBytes},
	} {
		d.write()
		if got := dirtyPages(&s.paged); !reflect.DeepEqual(got, d.pages) {
			t.Fatalf("%s: dirty pages = %v, want %v", d.name, got, d.pages)
		}
		copied, err := s.RestoreFromSparse(img)
		if err != nil {
			t.Fatal(err)
		}
		if copied != d.bytes {
			t.Fatalf("%s: dirty restore copied %d bytes, want %d", d.name, copied, d.bytes)
		}
		if !bytes.Equal(s.data, dense) {
			t.Fatalf("%s: restored contents differ from image", d.name)
		}
	}

	// Tracking dropped: restore rebuilds the whole pad.
	s.DropDirtyTracking()
	copied, err = s.RestoreFromSparse(img)
	if err != nil {
		t.Fatal(err)
	}
	if copied != len(s.data) {
		t.Fatalf("untracked restore copied %d bytes, want %d", copied, len(s.data))
	}
}
