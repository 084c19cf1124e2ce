package mem

import (
	"math/rand"
	"testing"
)

// accessCyclesPerLine is AccessCycles as it was before the closed-form
// bank count: every line of every region is counted into its bank one at
// a time. It is the oracle for the closed form, returning the cycles and
// what the conflict hook would see (bank -1 when it would not fire).
func accessCyclesPerLine(s *Scratchpad, regions []Region) (cycles, bank, extra int) {
	perBank := make([]int, s.banks)
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
	busiest, busiestBank := 0, 0
	for b, n := range perBank {
		if n > busiest {
			busiest, busiestBank = n, b
		}
	}
	bank, extra = -1, 0
	if busiest > longest {
		bank, extra = busiestBank, busiest-longest
	}
	return max(busiest, longest), bank, extra
}

// TestAccessCyclesClosedFormMatchesPerLineCount drives the closed-form
// bank count and the per-line oracle with random access sets over
// random geometries: regions of zero length, within one line, across a
// few lines, and long enough to wrap around the banks several times,
// at any alignment. Cycles and the conflict hook's bank and extra
// cycles must agree.
func TestAccessCyclesClosedFormMatchesPerLineCount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5000; trial++ {
		banks := 1 << rng.Intn(6)
		lineBytes := []int{1, 2, 16, 64, 96}[rng.Intn(5)]
		size := banks * lineBytes * 40
		s := newPad(t, "spad", size, banks, lineBytes)
		gotBank, gotExtra := -1, 0
		s.SetConflictHook(func(bank, extra int) { gotBank, gotExtra = bank, extra })

		regions := make([]Region, rng.Intn(7))
		for i := range regions {
			var n int
			switch rng.Intn(4) {
			case 0: // empty, or negative as a malformed size
				n = -rng.Intn(2)
			case 1: // within one line
				n = 1 + rng.Intn(lineBytes)
			case 2: // a few lines
				n = 1 + rng.Intn(3*lineBytes*banks+1)
			default: // wraps around the banks many times
				n = 1 + rng.Intn(size/2)
			}
			regions[i] = Region{Addr: rng.Intn(size / 2), N: n}
		}
		wantCycles, wantBank, wantExtra := accessCyclesPerLine(s, regions)
		if got := s.AccessCycles(regions); got != wantCycles || gotBank != wantBank || gotExtra != wantExtra {
			t.Fatalf("banks %d, %d-byte lines, regions %v: cycles %d, hook bank %d extra %d; per-line count gives %d, %d, %d",
				banks, lineBytes, regions, got, gotBank, gotExtra, wantCycles, wantBank, wantExtra)
		}
	}
}
