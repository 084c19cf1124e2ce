package mem

// Tests for the convergence-check accessors every memory shares:
// AppendDirtyPages and AppendPageDiffWords.

import (
	"reflect"
	"testing"
)

// TestScratchpadDiffWords pins the per-page word diff a convergence
// proof runs in place of a whole-pad scan: memory-wide word indices,
// ascending, one per differing word, through both the 8-byte chunk path
// and a short last page's byte tail, with the limit and the bad-page
// cases refused.
func TestScratchpadDiffWords(t *testing.T) {
	// Two pages, the second 14 bytes long: not a multiple of the 8-byte
	// scan chunk, so the tail path is exercised too.
	s := newPad(t, "t", PageBytes+14, 2, 8)
	img := s.SparseImage()
	for p := 0; p < 2; p++ {
		if words, ok := s.AppendPageDiffWords(nil, img, p, 4); !ok || words != nil {
			t.Fatalf("equal page %d: got %v, %v; want nil, true", p, words, ok)
		}
	}
	for _, p := range []int{-1, 2} {
		if _, ok := s.AppendPageDiffWords(nil, img, p, 4); ok {
			t.Fatalf("out-of-range page %d accepted", p)
		}
	}
	if _, ok := s.AppendPageDiffWords(nil, ZeroSparseImage(PageBytes), 0, 4); ok {
		t.Fatal("image of another capacity accepted")
	}
	// Page 1 covers words 2048-2054: its chunk covers bytes [0, 8), its
	// tail [8, 14). Flip both bytes of some words to check de-duplication.
	s.FlipBit(2, 3)            // word 1
	s.FlipBit(3, 0)            // word 1 again — must not duplicate
	s.FlipBit(PageBytes+5, 5)  // word 2050 (chunk path)
	s.FlipBit(PageBytes+12, 1) // word 2054 (tail path)
	s.FlipBit(PageBytes+13, 6) // word 2054 again — must not duplicate
	words, ok := s.AppendPageDiffWords(nil, img, 0, 4)
	if !ok || !reflect.DeepEqual(words, []int{1}) {
		t.Fatalf("page 0 diff = %v, %v; want [1], true", words, ok)
	}
	words, ok = s.AppendPageDiffWords(words, img, 1, 4)
	if !ok || !reflect.DeepEqual(words, []int{1, 2050, 2054}) {
		t.Fatalf("pages 0-1 diff = %v, %v; want [1 2050 2054], true", words, ok)
	}
	// The limit counts every word in buf, across pages.
	if _, ok := s.AppendPageDiffWords([]int{1}, img, 1, 2); ok {
		t.Fatal("diff beyond the limit not refused")
	}
}

// TestMainDirtyPagesAndPageEquals pins main memory's dirty-page listing
// and page equality, which a word diff with a limit of 0 decides.
func TestMainDirtyPagesAndPageEquals(t *testing.T) {
	m, err := NewMain(4 * PageBytes)
	if err != nil {
		t.Fatal(err)
	}
	pageEquals := func(img *SparseImage, p int) bool {
		_, ok := m.AppendPageDiffWords(nil, img, p, 0)
		return ok
	}
	if _, ok := m.AppendDirtyPages(nil); ok {
		t.Fatal("untracked memory reported a dirty set")
	}
	if err := m.WriteBytes(PageBytes+5, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	img := m.SparseImage()
	m.BeginDirtyTracking()
	if pages, ok := m.AppendDirtyPages(nil); !ok || len(pages) != 0 {
		t.Fatalf("fresh tracking: got %v, %v; want empty, true", pages, ok)
	}
	for p := 0; p < 4; p++ {
		if !pageEquals(img, p) {
			t.Fatalf("page %d unequal to its own image", p)
		}
	}
	// Dirty two pages, one of them with a content change.
	if err := m.WriteBytes(0, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteBytes(3*PageBytes, []byte{0}); err != nil { // same value: dirty but equal
		t.Fatal(err)
	}
	pages, ok := m.AppendDirtyPages(nil)
	if !ok || !reflect.DeepEqual(pages, []int{0, 3}) {
		t.Fatalf("dirty pages = %v, %v; want [0 3], true", pages, ok)
	}
	if pageEquals(img, 0) {
		t.Fatal("changed page compared equal")
	}
	if !pageEquals(img, 1) || !pageEquals(img, 3) {
		t.Fatal("unchanged pages compared unequal")
	}
	if pageEquals(img, -1) || pageEquals(img, 4) {
		t.Fatal("out-of-range page compared equal")
	}
	if pageEquals(nil, 0) {
		t.Fatal("nil image compared equal")
	}
}
