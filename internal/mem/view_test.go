package mem

import (
	"bytes"
	"reflect"
	"testing"

	"cambricon/internal/fixed"
)

func viewPad(t testing.TB) *Scratchpad {
	t.Helper()
	return newPad(t, "test", 1024, 4, 64)
}

func TestNumsViewReadsStoredValues(t *testing.T) {
	s := viewPad(t)
	want := []fixed.Num{1, -2, 300, fixed.Max, fixed.Min, 0, 7, -7}
	if err := s.WriteNums(16, want); err != nil {
		t.Fatal(err)
	}
	var spill []fixed.Num
	got, err := s.NumsView(16, len(want), &spill)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("view[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestNumsViewBounds(t *testing.T) {
	s := viewPad(t)
	var spill []fixed.Num
	cases := []struct{ addr, count int }{
		{-2, 4},      // negative address
		{1020, 4},    // tail past capacity
		{1024, 1},    // start at capacity
		{0, -1},      // negative count
		{0, 1 << 20}, // count overflows capacity
		{1 << 30, 1}, // address far outside
	}
	for _, c := range cases {
		if _, err := s.NumsView(c.addr, c.count, &spill); err == nil {
			t.Errorf("NumsView(%d, %d) accepted", c.addr, c.count)
		}
	}
	// Zero-length views of any in-range address are fine.
	if _, err := s.NumsView(0, 0, &spill); err != nil {
		t.Errorf("empty view rejected: %v", err)
	}
}

// TestNumsViewAliasesSubsequentWrites pins the documented aliasing
// contract: a view is a window onto live storage, so a write performed
// after taking the view must be visible through it (on hosts where the
// view is zero-copy). Holding a view across one's own writes is therefore
// rejected by convention — the simulator always finishes reads first —
// and this test is what makes that contract observable.
func TestNumsViewAliasesSubsequentWrites(t *testing.T) {
	raw := []byte{0, 0}
	if _, zeroCopy := fixed.ViewBytes(raw, 1); !zeroCopy {
		t.Skip("host layout does not alias views; spill copies are snapshots")
	}
	s := viewPad(t)
	if err := s.WriteNums(0, []fixed.Num{11, 22}); err != nil {
		t.Fatal(err)
	}
	var spill []fixed.Num
	view, err := s.NumsView(0, 2, &spill)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteNums(0, []fixed.Num{33, 44}); err != nil {
		t.Fatal(err)
	}
	if view[0] != 33 || view[1] != 44 {
		t.Errorf("view = %v after overwrite, want [33 44] (stale copy returned instead of a view)", view)
	}
}

// TestByteViews pins the transfer views: BytesView and WriteView fail
// with Check's error on a bad region and mark nothing then; a WriteView
// marks its pages before the caller writes, and a copy between two views
// of one memory may overlap (the copy is a memmove).
func TestByteViews(t *testing.T) {
	s := newPad(t, "pad", 2*PageBytes, 4, 64)
	s.BeginDirtyTracking()
	for _, c := range []struct{ addr, n int }{{-1, 2}, {2*PageBytes - 1, 2}, {0, -1}} {
		want := s.Check(c.addr, c.n)
		if _, err := s.BytesView(c.addr, c.n); err == nil || err.Error() != want.Error() {
			t.Errorf("BytesView(%d, %d) error = %v, want %v", c.addr, c.n, err, want)
		}
		if _, err := s.WriteView(c.addr, c.n); err == nil || err.Error() != want.Error() {
			t.Errorf("WriteView(%d, %d) error = %v, want %v", c.addr, c.n, err, want)
		}
	}
	if pages := dirtyPages(&s.paged); len(pages) != 0 {
		t.Fatalf("failed views marked pages %v", pages)
	}
	if err := s.WriteBytes(0, []byte{1, 2, 3, 4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	s.BeginDirtyTracking()
	src, err := s.BytesView(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := s.WriteView(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	copy(dst, src)
	if got, want := s.data[:8], []byte{1, 2, 1, 2, 3, 4, 5, 6}; !bytes.Equal(got, want) {
		t.Fatalf("overlapping copy left %v, want %v", got, want)
	}
	if got := dirtyPages(&s.paged); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("dirty pages = %v, want [0]", got)
	}
}

// TestNumsViewMisalignedFallsBackToSpill forces the decode fallback with an
// odd base address; values must still read back correctly and the spill
// buffer must be reused, not reallocated.
func TestNumsViewMisalignedFallsBackToSpill(t *testing.T) {
	s := viewPad(t)
	payload := []fixed.Num{5, -6, 7}
	var enc [6]byte
	fixed.ToBytes(payload, enc[:])
	if err := s.WriteBytes(17, enc[:]); err != nil { // odd address
		t.Fatal(err)
	}
	var spill []fixed.Num
	got, err := s.NumsView(17, 3, &spill)
	if err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Errorf("misaligned view[%d] = %d, want %d", i, got[i], payload[i])
		}
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := s.NumsView(17, 3, &spill); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("warm spill fallback allocates %v per call, want 0", allocs)
	}
}

func TestViewBytesContract(t *testing.T) {
	if _, ok := fixed.ViewBytes(nil, 0); !ok {
		t.Error("empty view should always succeed")
	}
	if _, ok := fixed.ViewBytes([]byte{1}, 1); ok {
		t.Error("short source accepted")
	}
	if _, ok := fixed.ViewBytes([]byte{1, 2}, -1); ok {
		t.Error("negative count accepted")
	}
}

// TestAccessCyclesManyRegions exercises conflict accounting past the
// four-region fast path the instruction set produces, covering wide
// fan-in shapes (>4 concurrent port accesses).
func TestAccessCyclesManyRegions(t *testing.T) {
	s := viewPad(t) // 4 banks, 64-byte lines
	line := 64
	cases := []struct {
		name    string
		regions []Region
		want    int
	}{
		{"six ports, six distinct banks impossible: 4 banks, worst pair shares", []Region{
			{Addr: 0 * line, N: 8}, {Addr: 1 * line, N: 8}, {Addr: 2 * line, N: 8},
			{Addr: 3 * line, N: 8}, {Addr: 4 * line, N: 8}, {Addr: 5 * line, N: 8},
		}, 2}, // banks 0..3 then 0,1 again: busiest bank serves 2 lines
		{"eight ports all on one bank", []Region{
			{Addr: 0, N: 4}, {Addr: 4 * line, N: 4}, {Addr: 8 * line, N: 4},
			{Addr: 12 * line, N: 4}, {Addr: 0, N: 4}, {Addr: 4 * line, N: 4},
			{Addr: 8 * line, N: 4}, {Addr: 12 * line, N: 4},
		}, 8}, // every region maps to bank 0
		{"five ports, one long stream dominates", []Region{
			{Addr: 0, N: 8 * 64}, // 8 lines across 4 banks: 2 per bank
			{Addr: 1 * line, N: 4}, {Addr: 2 * line, N: 4}, {Addr: 3 * line, N: 4},
			{Addr: 0, N: 0}, // empty regions are ignored
		}, 8}, // the 8-line stream serializes within its own access and exceeds any bank's fan-in (3)
	}
	for _, c := range cases {
		if got := s.AccessCycles(c.regions); got != c.want {
			t.Errorf("%s: AccessCycles = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestAccessCyclesAllocationFree(t *testing.T) {
	s := viewPad(t)
	regions := []Region{
		{Addr: 0, N: 128}, {Addr: 256, N: 128}, {Addr: 512, N: 64},
		{Addr: 64, N: 32}, {Addr: 320, N: 32}, {Addr: 700, N: 16},
	}
	if allocs := testing.AllocsPerRun(50, func() {
		s.AccessCycles(regions)
	}); allocs > 0 {
		t.Errorf("AccessCycles allocates %v per call, want 0", allocs)
	}
}

// BenchmarkAccessCycles times the bank count of a three-operand vector
// instruction: over 512-byte operands, and over 4,608-byte ones, the
// 72-line operands of SOM's whole-map instructions.
func BenchmarkAccessCycles(b *testing.B) {
	for _, c := range []struct {
		name    string
		regions []Region
	}{
		{"512B", []Region{{Addr: 0, N: 512}, {Addr: 128, N: 512}, {Addr: 512, N: 512}}},
		{"4608B", []Region{{Addr: 0, N: 4608}, {Addr: 9216, N: 4608}, {Addr: 32128, N: 4608}}},
	} {
		b.Run(c.name, func(b *testing.B) {
			s := viewPad(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.AccessCycles(c.regions)
			}
		})
	}
}

func BenchmarkNumsView(b *testing.B) {
	s := newPad(b, "bench", 1<<20, 4, 64)
	const count = 256 * 256
	var spill []fixed.Num
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.NumsView(0, count, &spill); err != nil {
			b.Fatal(err)
		}
	}
}
