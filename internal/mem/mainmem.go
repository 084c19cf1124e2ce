package mem

import (
	"bytes"
	"fmt"
)

// Main is the off-chip main memory. The prototype accesses it only through
// load/store instructions (Cambricon is a load-store architecture,
// Section II-B). Addresses are byte addresses; scalar accesses are 32-bit,
// vector/matrix accesses move 16-bit fixed-point element blocks via DMA.
// Storage, bounds checks and dirty-page tracking are the ones the
// scratchpads use (paged).
type Main struct {
	paged
}

// NewMain allocates a main memory of size bytes. The size comes from
// user-supplied configuration, so a bad value is returned as an error
// rather than panicking.
func NewMain(size int) (*Main, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mem: invalid main memory size %d", size)
	}
	return &Main{paged{name: "main", data: make([]byte, size)}}, nil
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
