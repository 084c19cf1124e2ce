package mem

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"
)

// captureMemBytes sizes the memory the capture tests drive: six pages,
// the last of them short.
const captureMemBytes = 5*PageBytes + 100

// denseOf expands an image into the memory contents it describes.
func denseOf(img *SparseImage) []byte {
	d := make([]byte, img.Size())
	for p, b := range img.pages {
		copy(d[p*PageBytes:], b)
	}
	return d
}

// sameImage reports how a differs from b page for page: the capacity,
// which pages are stored, and their bytes.
func sameImage(a, b *SparseImage) error {
	if a.Size() != b.Size() {
		return fmt.Errorf("size %d, want %d", a.Size(), b.Size())
	}
	if len(a.pages) != len(b.pages) {
		return fmt.Errorf("%d pages stored, want %d", len(a.pages), len(b.pages))
	}
	for p, want := range b.pages {
		if got := a.Page(p); !bytes.Equal(got, want) {
			return fmt.Errorf("page %d: stored %d bytes, want %d (or their contents differ)", p, len(got), len(want))
		}
	}
	return nil
}

// driveCaptures interprets ops as a run of one tracked memory: each
// byte picks an operation — a write of nonzero bytes, a write that
// zeroes a whole page, a capture, a restore of an earlier capture, or
// dropping tracking — and the bytes after it its arguments. Every
// capture is taken relative to the image the memory was last restored
// from or captured into, and must equal a full capture page for page,
// share every page that was not written since with that image, and
// store a new slice for every page that was; every restore must
// reproduce its image byte for byte.
func driveCaptures(ops []byte) error {
	m, err := NewMain(captureMemBytes)
	if err != nil {
		return err
	}
	pages := (captureMemBytes + PageBytes - 1) / PageBytes
	base := m.SparseImage()
	m.BeginDirtyTracking()
	images := []*SparseImage{base}
	arg := func(i int) int {
		if i < len(ops) {
			return int(ops[i])
		}
		return 0
	}
	for i := 0; i < len(ops); i++ {
		switch op := ops[i] % 8; {
		case op < 3: // a write of nonzero bytes
			p := arg(i+1) % pages
			lo, hi, _ := m.pageSpan(p)
			addr := lo + arg(i+2)*(hi-lo)/256
			n := min(1+arg(i+3)*3, len(m.data)-addr)
			b := bytes.Repeat([]byte{byte(op + 1)}, n)
			if err := m.WriteBytes(addr, b); err != nil {
				return err
			}
			i += 3
		case op < 5: // a page zeroed again
			lo, hi, _ := m.pageSpan(arg(i+1) % pages)
			if err := m.WriteBytes(lo, make([]byte, hi-lo)); err != nil {
				return err
			}
			i++
		case op == 5: // a capture
			dirty, _ := m.AppendDirtyPages(nil)
			img := m.SparseImageFrom(base)
			if err := sameImage(img, m.SparseImage()); err != nil {
				return fmt.Errorf("op %d: relative capture differs from a full capture: %v", i, err)
			}
			for p, b := range img.pages {
				written := false
				for _, d := range dirty {
					written = written || d == p
				}
				if shared := samePage(b, base.Page(p)); shared == written && m.Tracking() {
					return fmt.Errorf("op %d: page %d written since the base %v, shared with it %v", i, p, written, shared)
				}
			}
			m.BeginDirtyTracking()
			base = img
			images = append(images, img)
		case op == 6: // a restore of an earlier capture
			img := images[arg(i+1)%len(images)]
			if img != base {
				m.MarkChangedPages(base, img)
			}
			if _, err := m.RestoreFromSparse(img); err != nil {
				return err
			}
			if !bytes.Equal(m.data, denseOf(img)) {
				return fmt.Errorf("op %d: restore does not reproduce its image", i)
			}
			base = img
			i++
		default: // tracking dropped: the next capture tests every page
			m.DropDirtyTracking()
		}
	}
	return nil
}

// TestRelativeCaptureMatchesFullCapture drives memories through random
// runs of writes, zeroing writes, captures and restores (driveCaptures)
// and requires every capture relative to the last restored or captured
// image to equal a full SparseImage capture.
func TestRelativeCaptureMatchesFullCapture(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewPCG(seed, 0))
		ops := make([]byte, 64+r.IntN(192))
		for i := range ops {
			ops[i] = byte(r.Uint32())
		}
		if err := driveCaptures(ops); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestRelativeCaptureDropsZeroedPage pins the capture's one deletion: a
// page the base stores that a write zeroes again is not stored by the
// relative capture, which still shares the page nobody wrote.
func TestRelativeCaptureDropsZeroedPage(t *testing.T) {
	m := newMainMem(t, captureMemBytes)
	for _, addr := range []int{PageBytes + 8, 5*PageBytes + 99} {
		if err := m.WriteBytes(addr, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	base := m.SparseImage()
	m.BeginDirtyTracking()
	if err := m.WriteBytes(5*PageBytes+99, []byte{0}); err != nil {
		t.Fatal(err)
	}
	img := m.SparseImageFrom(base)
	if img.Page(5) != nil {
		t.Fatal("relative capture stores the short last page the write zeroed")
	}
	if !samePage(img.Page(1), base.Page(1)) {
		t.Fatal("relative capture does not share the unwritten page 1 with its base")
	}
	if got, want := img.Bytes(), PageBytes; got != want {
		t.Fatalf("relative capture stores %d bytes, want %d", got, want)
	}
}

// FuzzRelativeCapture is TestRelativeCaptureMatchesFullCapture over
// fuzzed operation streams.
func FuzzRelativeCapture(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 5, 3, 1, 5, 6, 0, 5})
	f.Add([]byte{1, 5, 9, 1, 5, 4, 5, 5, 6, 1, 7, 2, 0, 0, 9, 5, 6, 2, 5})
	f.Add([]byte{2, 0, 255, 255, 5, 3, 0, 5, 6, 0, 6, 2, 5})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			return
		}
		if err := driveCaptures(ops); err != nil {
			t.Fatal(err)
		}
	})
}
