package mem

import (
	"testing"
	"testing/quick"

	"cambricon/internal/fixed"
)

func TestScratchpadReadWriteRoundTrip(t *testing.T) {
	s := newPad(t, "vector", 1024, 4, 64)
	ns := fixed.FromFloats([]float64{1, -2, 3.5, 0})
	if err := s.WriteNums(100, ns); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadNums(100, len(ns))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ns {
		if got[i] != ns[i] {
			t.Errorf("element %d: got %v want %v", i, got[i], ns[i])
		}
	}
}

func TestScratchpadBoundsChecks(t *testing.T) {
	s := newPad(t, "vector", 128, 4, 64)
	if err := s.ReadBytesInto(120, make([]byte, 16)); err == nil {
		t.Error("read past end must fail")
	}
	if err := s.ReadBytesInto(-1, make([]byte, 4)); err == nil {
		t.Error("negative address must fail")
	}
	if err := s.Check(0, -4); err == nil {
		t.Error("negative size must fail")
	}
	if err := s.WriteBytes(126, []byte{1, 2, 3}); err == nil {
		t.Error("write past end must fail")
	}
	if err := s.WriteNums(127, []fixed.Num{1}); err == nil {
		t.Error("element write past end must fail")
	}
}

func TestScratchpadGeometryValidation(t *testing.T) {
	cases := []struct {
		name              string
		size, banks, line int
	}{
		{"zero size", 0, 4, 64},
		{"non-power-of-two banks", 128, 3, 64},
		{"zero line", 128, 4, 0},
		{"negative size", -1, 4, 64},
	}
	for _, c := range cases {
		if _, err := NewScratchpad("x", c.size, c.banks, c.line); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
}

func TestScratchpadFlipBit(t *testing.T) {
	s := newPad(t, "vector", 128, 4, 64)
	if err := s.WriteBytes(10, []byte{0x00}); err != nil {
		t.Fatal(err)
	}
	if !s.FlipBit(10, 3) {
		t.Fatal("in-range flip reported out of range")
	}
	if b := s.data[10]; b != 1<<3 {
		t.Fatalf("byte after flip: %#x", b)
	}
	// Flipping again restores the original value.
	s.FlipBit(10, 3)
	if b := s.data[10]; b != 0 {
		t.Fatalf("double flip not identity: %#x", b)
	}
	// Bit indices reduce mod 8; out-of-range addresses are rejected.
	if !s.FlipBit(10, 11) {
		t.Fatal("bit 11 should reduce to bit 3")
	}
	if b := s.data[10]; b != 1<<3 {
		t.Fatalf("bit reduced flip: %#x", b)
	}
	if s.FlipBit(-1, 0) || s.FlipBit(128, 0) {
		t.Fatal("out-of-range flip must report false")
	}
}

func TestAccessCyclesNoConflict(t *testing.T) {
	// 4 banks, 64-byte lines: lines 0,1,2,3 map to distinct banks.
	s := newPad(t, "vector", 4096, 4, 64)
	regions := []Region{
		{Addr: 0, N: 64},   // bank 0
		{Addr: 64, N: 64},  // bank 1
		{Addr: 128, N: 64}, // bank 2
		{Addr: 192, N: 64}, // bank 3
	}
	if got := s.AccessCycles(regions); got != 1 {
		t.Errorf("disjoint banks should take 1 cycle, got %d", got)
	}
}

func TestAccessCyclesConflict(t *testing.T) {
	s := newPad(t, "vector", 4096, 4, 64)
	// All four accesses hit bank 0 (line stride of 4 lines = 256 bytes).
	regions := []Region{
		{Addr: 0, N: 64},
		{Addr: 256, N: 64},
		{Addr: 512, N: 64},
		{Addr: 768, N: 64},
	}
	if got := s.AccessCycles(regions); got != 4 {
		t.Errorf("same-bank accesses should serialize to 4 cycles, got %d", got)
	}
}

func TestAccessCyclesStreaming(t *testing.T) {
	s := newPad(t, "vector", 4096, 4, 64)
	// One access covering 8 lines: 2 lines per bank, so the busiest bank
	// count (2) is below the streaming length (8 lines).
	if got := s.AccessCycles([]Region{{Addr: 0, N: 512}}); got != 8 {
		t.Errorf("streaming 8 lines should take 8 cycles, got %d", got)
	}
	// Zero-length regions are free.
	if got := s.AccessCycles([]Region{{Addr: 0, N: 0}}); got != 0 {
		t.Errorf("empty access should take 0 cycles, got %d", got)
	}
}

func TestAccessCyclesPartialLineCountsOnce(t *testing.T) {
	s := newPad(t, "vector", 4096, 4, 64)
	// Two sub-line accesses to the same line conflict on one bank.
	regions := []Region{{Addr: 0, N: 8}, {Addr: 16, N: 8}}
	if got := s.AccessCycles(regions); got != 2 {
		t.Errorf("same-line accesses serialize: got %d, want 2", got)
	}
}

func TestRegionOverlaps(t *testing.T) {
	cases := []struct {
		a, b Region
		want bool
	}{
		{Region{0, 10}, Region{5, 10}, true},
		{Region{0, 10}, Region{10, 10}, false},
		{Region{10, 10}, Region{0, 10}, false},
		{Region{0, 10}, Region{0, 0}, false},
		{Region{5, 1}, Region{5, 1}, true},
		{Region{0, 100}, Region{50, 1}, true},
	}
	for _, c := range cases {
		if got := c.a.Overlaps(c.b); got != c.want {
			t.Errorf("%v.Overlaps(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Overlaps(c.a); got != c.want {
			t.Errorf("overlap must be symmetric: %v vs %v", c.a, c.b)
		}
	}
}

func TestMainMemoryWords(t *testing.T) {
	m := newMainMem(t, 64)
	if err := m.WriteWord(12, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadWord(12)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0xdeadbeef {
		t.Errorf("word round trip: got %#x", got)
	}
	if _, err := m.ReadWord(62); err == nil {
		t.Error("word read past end must fail")
	}
	if err := m.WriteWord(-1, 0); err == nil {
		t.Error("negative word write must fail")
	}
}

func TestMainMemoryNums(t *testing.T) {
	m := newMainMem(t, 1024)
	ns := fixed.FromFloats([]float64{0.5, -0.5, 100})
	if err := m.WriteNums(10, ns); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadNums(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ns {
		if got[i] != ns[i] {
			t.Errorf("element %d mismatch", i)
		}
	}
}

func TestDMATransferCycles(t *testing.T) {
	d := DMA{StartupCycles: 10, BytesPerCycle: 32}
	if got := d.TransferCycles(0); got != 0 {
		t.Errorf("zero transfer should be free, got %d", got)
	}
	if got := d.TransferCycles(1); got != 11 {
		t.Errorf("1 byte = startup + 1, got %d", got)
	}
	if got := d.TransferCycles(64); got != 12 {
		t.Errorf("64 bytes = startup + 2, got %d", got)
	}
	if got := d.TransferCycles(65); got != 13 {
		t.Errorf("65 bytes rounds up, got %d", got)
	}
	// Degenerate bandwidth defaults to 1 byte/cycle rather than dividing
	// by zero.
	bad := DMA{StartupCycles: 0, BytesPerCycle: 0}
	if got := bad.TransferCycles(8); got != 8 {
		t.Errorf("zero bandwidth fallback: got %d", got)
	}
}

// Property: writes then reads at arbitrary in-range offsets round-trip.
func TestQuickScratchpadRoundTrip(t *testing.T) {
	s := newPad(t, "vector", 4096, 4, 64)
	f := func(addr uint16, vals []int16) bool {
		a := int(addr) % 2048
		ns := make([]fixed.Num, len(vals))
		for i, v := range vals {
			ns[i] = fixed.Num(v)
		}
		if fixed.Bytes(len(ns)) > len(s.data)-a {
			return true // out of range by construction; skip
		}
		if err := s.WriteNums(a, ns); err != nil {
			return false
		}
		got, err := s.ReadNums(a, len(ns))
		if err != nil {
			return false
		}
		for i := range ns {
			if got[i] != ns[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAccessors(t *testing.T) {
	s := newPad(t, "vector", 1024, 4, 64)
	if s.Name() != "vector" || len(s.data) != 1024 || s.banks != 4 {
		t.Error("accessors wrong")
	}
	m := newMainMem(t, 256)
	if len(m.data) != 256 {
		t.Error("main size wrong")
	}
	if err := m.ReadBytesInto(0, make([]byte, 8)); err != nil {
		t.Error("main ReadBytesInto")
	}
	if err := m.WriteBytes(4, []byte{1, 2}); err != nil {
		t.Error(err)
	}
	if err := m.ReadBytesInto(250, make([]byte, 16)); err == nil {
		t.Error("out-of-range read must fail")
	}
	if err := m.WriteBytes(-1, []byte{1}); err == nil {
		t.Error("negative write must fail")
	}
}

func TestNewMainRejectsBadSize(t *testing.T) {
	if _, err := NewMain(0); err == nil {
		t.Error("zero size: want error")
	}
	if _, err := NewMain(-4); err == nil {
		t.Error("negative size: want error")
	}
}
