package sim

// Test-only state accessors, and hooks for the external tests (package
// sim_test), which build the Table III programs through internal/bench
// and so cannot live in package sim.

import (
	"bytes"
	"slices"

	"cambricon/internal/fixed"
	"cambricon/internal/mem"
)

// GPR reads a register.
func (m *Machine) GPR(r uint8) uint32 { return m.gpr[r] }

// WriteMainWord stores a 32-bit scalar in main memory.
func (m *Machine) WriteMainWord(addr int, v uint32) error {
	return m.main.WriteWord(addr, v)
}

// ReadMainWord reads a 32-bit scalar from main memory.
func (m *Machine) ReadMainWord(addr int) (uint32, error) {
	return m.main.ReadWord(addr)
}

// ReadVectorSpad reads elements directly from the vector scratchpad.
func (m *Machine) ReadVectorSpad(addr, count int) ([]fixed.Num, error) {
	return m.vspad.ReadNums(addr, count)
}

// ReadMatrixSpad reads elements directly from the matrix scratchpad.
func (m *Machine) ReadMatrixSpad(addr, count int) ([]fixed.Num, error) {
	return m.mspad.ReadNums(addr, count)
}

// MemoryNames names the memories a Snapshot images, indexed like its
// images.
var MemoryNames = [3]string{spaceMain: "main", spaceVec: "vector-spad", spaceMat: "matrix-spad"}

// PageBound is the page bound a convergence proof compares memory sp
// over, for this machine against the golden state at dynamic index to.
func (m *Machine) PageBound(sp int, lv *Liveness, to int64) ([]int, bool) {
	pages, ok := m.pageBound(space(sp), lv, to)
	return slices.Clone(pages), ok
}

// DiffPages returns the pages of memory sp whose contents differ between
// two snapshots.
func DiffPages(a, b *Snapshot, sp int) []int {
	ia, ib := a.img[sp], b.img[sp]
	var pages []int
	for p := 0; p*mem.PageBytes < ia.Size(); p++ {
		// Absent pages are all-zero, and a stored page is never all-zero.
		if !bytes.Equal(ia.Page(p), ib.Page(p)) {
			pages = append(pages, p)
		}
	}
	return pages
}

// CaptureDiffPages returns the pages of memory sp where the snapshot's
// image differs from a full capture of the machine's memory: the pages
// stored by one of the two only, or by both with other bytes.
func (m *Machine) CaptureDiffPages(s *Snapshot, sp int) []int {
	full := [3]*mem.SparseImage{spaceMain: m.main.SparseImage(), spaceVec: m.vspad.SparseImage(), spaceMat: m.mspad.SparseImage()}[sp]
	var pages []int
	for p := 0; p*mem.PageBytes < full.Size(); p++ {
		if !bytes.Equal(full.Page(p), s.img[sp].Page(p)) {
			pages = append(pages, p)
		}
	}
	return pages
}
