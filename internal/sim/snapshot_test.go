package sim

import (
	"reflect"
	"strings"
	"testing"

	"cambricon/internal/fixed"
	"cambricon/internal/mem"
)

// snapKernel exercises every state a snapshot must capture: the RV stream
// (PRNG), scalar registers, both a vector-scratchpad round trip and a
// main-memory store (dirty pages), and a loop (PC/branching).
const snapKernel = `
	SMOVE  $1, #32          // element count
	SMOVE  $2, #0           // vspad region A
	SMOVE  $3, #4096        // vspad region B
	SMOVE  $8, #4           // loop counter
l:	RV     $2, $1           // fresh random vector each iteration
	VLOAD  $3, $1, #1000    // input from main
	VAV    $3, $1, $2, $3   // input + random
	VSTORE $3, $1, #2000    // result back to main
	SADD   $10, $10, #7
	SADD   $8, $8, #-1
	CB     #l, $8
`

// snapInit writes the kernel's input region.
func snapInit(t testing.TB, m *Machine) {
	t.Helper()
	in := make([]float64, 32)
	for i := range in {
		in[i] = float64(i%7) * 0.25
	}
	if err := m.WriteMainNums(1000, fixed.FromFloats(in)); err != nil {
		t.Fatal(err)
	}
}

// snapRun runs the loaded kernel and returns its stats plus the result
// region and a scalar register.
func snapRun(t *testing.T, m *Machine) (Stats, []fixed.Num, uint32) {
	t.Helper()
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.ReadMainNums(2000, 32)
	if err != nil {
		t.Fatal(err)
	}
	return st, out, m.GPR(10)
}

func snapConfig() Config {
	cfg := DefaultConfig()
	cfg.Seed = 0x1234
	return cfg
}

// TestRestoreMatchesFresh pins the warm-start contract: a machine
// restored from a post-init snapshot produces bit-identical statistics,
// outputs and registers to a freshly constructed machine that replayed
// the same initialization — across repeated restores.
func TestRestoreMatchesFresh(t *testing.T) {
	prog := mustAssemble(t, snapKernel)

	fresh := mustNew(t, snapConfig())
	snapInit(t, fresh)
	fresh.LoadProgram(prog.Instructions)
	wantSt, wantOut, wantGPR := snapRun(t, fresh)

	m := mustNew(t, snapConfig())
	snapInit(t, m)
	m.LoadProgram(prog.Instructions)
	snap := m.Snapshot()
	for i := 0; i < 3; i++ {
		st, out, gpr := snapRun(t, m)
		if !reflect.DeepEqual(st, wantSt) {
			t.Fatalf("restore %d: stats = %+v, want %+v", i, st, wantSt)
		}
		if !reflect.DeepEqual(out, wantOut) {
			t.Fatalf("restore %d: outputs differ from fresh run", i)
		}
		if gpr != wantGPR {
			t.Fatalf("restore %d: $10 = %d, want %d", i, gpr, wantGPR)
		}
		if err := m.Restore(snap); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestoreOntoForeignMachine pins the pool-recycling path: a machine
// that never held the snapshot's image (its dirty state is relative to
// nothing) restores via a full copy and still matches a fresh machine.
func TestRestoreOntoForeignMachine(t *testing.T) {
	prog := mustAssemble(t, snapKernel)

	donor := mustNew(t, snapConfig())
	snapInit(t, donor)
	donor.LoadProgram(prog.Instructions)
	snap := donor.Snapshot()
	wantSt, wantOut, wantGPR := snapRun(t, donor)

	// The foreign machine has run arbitrary other work first.
	foreign := mustNew(t, snapConfig())
	if err := foreign.WriteMainNums(1000, fixed.FromFloats(make([]float64, 32))); err != nil {
		t.Fatal(err)
	}
	foreign.LoadProgram(mustAssemble(t, "\tSMOVE $1, #8\n\tSMOVE $2, #0\n\tRV $2, $1\n").Instructions)
	if _, err := foreign.Run(); err != nil {
		t.Fatal(err)
	}

	if err := foreign.Restore(snap); err != nil {
		t.Fatal(err)
	}
	st, out, gpr := snapRun(t, foreign)
	if !reflect.DeepEqual(st, wantSt) {
		t.Fatalf("foreign restore: stats = %+v, want %+v", st, wantSt)
	}
	if !reflect.DeepEqual(out, wantOut) || gpr != wantGPR {
		t.Fatal("foreign restore: outputs differ from fresh run")
	}
}

// TestRestoreConfigMismatch pins the safety check: restoring across
// architecturally different configurations fails, while a differing
// watchdog budget (MaxCycles) is explicitly allowed.
func TestRestoreConfigMismatch(t *testing.T) {
	m := mustNew(t, snapConfig())
	snap := m.Snapshot()

	other := snapConfig()
	other.IssueWidth = 1
	mm := mustNew(t, other)
	if err := mm.Restore(snap); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("cross-config restore: err = %v", err)
	}

	budget := snapConfig()
	budget.MaxCycles = 12345
	mb := mustNew(t, budget)
	if err := mb.Restore(snap); err != nil {
		t.Fatalf("MaxCycles-only difference should restore: %v", err)
	}
	if got := mb.Config().MaxCycles; got != 12345 {
		t.Fatalf("restore clobbered MaxCycles: %d", got)
	}
}

// TestSetMaxCycles pins the budget setter used by pooled machines.
func TestSetMaxCycles(t *testing.T) {
	m := mustNew(t, snapConfig())
	m.SetMaxCycles(99)
	if got := m.Config().MaxCycles; got != 99 {
		t.Fatalf("MaxCycles = %d, want 99", got)
	}
	m.SetMaxCycles(-1)
	if got := m.Config().MaxCycles; got != 0 {
		t.Fatalf("negative budget should disable the watchdog, got %d", got)
	}
}

// TestSnapshotBytes sanity-checks the captured image accounting: every
// memory is held page-sparse, so a pristine machine's snapshot keeps
// nothing resident, a prepared image only its touched main pages, and a
// run's snapshot only the scratchpad pages it wrote on top.
func TestSnapshotBytes(t *testing.T) {
	cfg := snapConfig()
	for _, pristine := range []*Snapshot{mustNew(t, cfg).Snapshot(), mustPristine(t, cfg)} {
		if pristine.Bytes() != 0 {
			t.Fatalf("pristine Snapshot.Bytes() = %d, want 0", pristine.Bytes())
		}
		if !archEqual(pristine.cfg, cfg) {
			t.Fatal("snapshot config does not match capture config")
		}
	}

	// A prepared image keeps only its touched main pages resident.
	m := mustNew(t, cfg)
	snapInit(t, m)
	if got := m.Snapshot().Bytes(); got != mem.PageBytes {
		t.Fatalf("prepared snapshot resident = %d bytes, want the one main page snapInit writes", got)
	}
	// After a run, the two vector-scratchpad pages snapKernel writes (its
	// regions A and B) join it.
	m.LoadProgram(mustAssemble(t, snapKernel).Instructions)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().Bytes(); got != 3*mem.PageBytes {
		t.Fatalf("post-run snapshot resident = %d bytes, want 3 pages", got)
	}
}

// mustPristine synthesizes a pristine snapshot, failing the test on error.
func mustPristine(t *testing.T, cfg Config) *Snapshot {
	t.Helper()
	s, err := PristineSnapshot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// pageKernel writes one page of each memory: vector-scratchpad page 2,
// matrix-scratchpad page 5 and main-memory page 10.
const pageKernel = `
	SMOVE  $1, #32
	SMOVE  $2, #8192
	SMOVE  $3, #20480
	VLOAD  $2, $1, #1000
	MLOAD  $3, $1, #1000
	VSTORE $2, $1, #40960
`

// TestRestoreCopiesOnlyWrittenPages pins the page-granular restore of all
// three memories: after a run, each memory's dirty set is exactly the
// pages the run wrote, and restoring the snapshot copies those pages and
// nothing else — every time, not just on the first restore.
func TestRestoreCopiesOnlyWrittenPages(t *testing.T) {
	cfg := snapConfig()
	m := mustNew(t, cfg)
	snapInit(t, m)
	m.LoadProgram(mustAssemble(t, pageKernel).Instructions)
	snap := m.Snapshot()
	wantPages := [3][]int{spaceMain: {10}, spaceVec: {2}, spaceMat: {5}}
	for round := 0; round < 3; round++ {
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		want := 0
		for sp, mm := range m.memories() {
			pages, ok := mm.AppendDirtyPages(nil)
			if !ok || !reflect.DeepEqual(pages, wantPages[sp]) {
				t.Fatalf("round %d, memory %d: dirty pages = %v, %v; want %v, true", round, sp, pages, ok, wantPages[sp])
			}
			for _, p := range pages {
				want += min(mem.PageBytes, cfg.memBytes(space(sp))-p*mem.PageBytes)
			}
		}
		if err := m.Restore(snap); err != nil {
			t.Fatal(err)
		}
		if got := m.LastRestoreBytes(); got != want {
			t.Fatalf("round %d: restore copied %d bytes, want %d (the written pages)", round, got, want)
		}
	}
}

// TestRestoreZeroesStaleDirtyPages pins the sparse-restore edge case: a
// run that writes a page the snapshot does not store (an all-zero page
// at capture time) must see it zeroed again after Restore.
func TestRestoreZeroesStaleDirtyPages(t *testing.T) {
	prog := mustAssemble(t, snapKernel)
	m := mustNew(t, snapConfig())
	snapInit(t, m)
	m.LoadProgram(prog.Instructions)
	snap := m.Snapshot()
	// Dirty a far page that is all-zero in the snapshot.
	const farAddr = 8 << 20
	if err := m.WriteMainWord(farAddr, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if m.LastRestoreBytes() == 0 {
		t.Fatal("restore after a dirtying write reported zero copy volume")
	}
	v, err := m.ReadMainWord(farAddr)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("stale dirty page survived restore: got %#x, want 0", v)
	}
	// And the restored machine still runs bit-identically.
	st, _, _ := snapRun(t, m)
	fresh := mustNew(t, snapConfig())
	snapInit(t, fresh)
	fresh.LoadProgram(prog.Instructions)
	wantSt, _, _ := snapRun(t, fresh)
	if !reflect.DeepEqual(st, wantSt) {
		t.Fatalf("post-restore stats = %+v, want %+v", st, wantSt)
	}
}

// twoPhaseKernel writes new pages in two phases: it loads main page 0 into
// vector-scratchpad page 2 and matrix-scratchpad page 5 (dynamic indices
// 4 and 5), then stores the vector to main page 10 (index 6), adds it
// into vector page 3 (index 7) and stores that to main page 12 (index
// 8).
const twoPhaseKernel = `
	SMOVE  $1, #32
	SMOVE  $2, #8192
	SMOVE  $3, #20480
	SMOVE  $4, #12288
	VLOAD  $2, $1, #1000
	MLOAD  $3, $1, #1000
	VSTORE $2, $1, #40960
	VAV    $4, $1, $2, $2
	VSTORE $4, $1, #49152
`

// pageSpanBytes is the size of page p of memory sp under cfg (the last
// page may be short).
func pageSpanBytes(cfg *Config, sp space, p int) int {
	return min(mem.PageBytes, cfg.memBytes(sp)-p*mem.PageBytes)
}

// unsharedPages returns, ascending, the pages of memory sp that a and b
// do not hold in one shared slice: stored by one of them only, or by
// both in slices of their own.
func unsharedPages(a, b *Snapshot, sp space) []int {
	ia, ib := a.img[sp], b.img[sp]
	var pages []int
	for p := 0; p*mem.PageBytes < ia.Size(); p++ {
		x, y := ia.Page(p), ib.Page(p)
		if (x != nil || y != nil) && (len(x) == 0 || len(y) == 0 || &x[0] != &y[0]) {
			pages = append(pages, p)
		}
	}
	return pages
}

// storedPages returns, ascending, the pages of memory sp that s stores.
func storedPages(s *Snapshot, sp space) []int {
	var pages []int
	for p := 0; p*mem.PageBytes < s.img[sp].Size(); p++ {
		if s.img[sp].Page(p) != nil {
			pages = append(pages, p)
		}
	}
	return pages
}

// unionBytes sums the spans of the distinct pages of memory sp in sets.
func unionBytes(cfg *Config, sp space, sets ...[]int) int {
	seen := map[int]bool{}
	n := 0
	for _, set := range sets {
		for _, p := range set {
			if !seen[p] {
				seen[p] = true
				n += pageSpanBytes(cfg, sp, p)
			}
		}
	}
	return n
}

// requireHolds fails the test unless every memory of m holds exactly the
// images of s, by a full capture of each.
func requireHolds(t *testing.T, m *Machine, s *Snapshot) {
	t.Helper()
	for sp, name := range MemoryNames {
		if pages := m.CaptureDiffPages(s, sp); pages != nil {
			t.Fatalf("%s pages %v differ from the restored snapshot", name, pages)
		}
	}
}

// TestCheckpointSwitchCopiesUnsharedPages pins copy-on-capture: a
// checkpoint captured on a machine that tracks its writes shares every
// page nothing wrote since the previous one, and restoring a machine
// from one checkpoint to the next copies only the pages the machine
// dirtied or the two checkpoints do not share, not every page either
// stores.
func TestCheckpointSwitchCopiesUnsharedPages(t *testing.T) {
	cfg := snapConfig()
	m := mustNew(t, cfg)
	snapInit(t, m)
	m.LoadProgram(mustAssemble(t, twoPhaseKernel).Instructions)
	m.Snapshot()
	var ckpts [2]*Snapshot
	for i, at := range []int64{6, 8} {
		if _, _, err := m.RunUntil(at); err != nil {
			t.Fatal(err)
		}
		ckpts[i] = m.Snapshot()
	}
	c1, c2 := ckpts[0], ckpts[1]
	wantUnshared := [3][]int{spaceMain: {10}, spaceVec: {3}}
	for sp := range wantUnshared {
		if got := unsharedPages(c1, c2, space(sp)); !reflect.DeepEqual(got, wantUnshared[sp]) {
			t.Fatalf("%s: checkpoints do not share pages %v, want %v", MemoryNames[sp], got, wantUnshared[sp])
		}
	}

	// A fault site's machine: restored to the first checkpoint, run to
	// the end (dirtying main pages 10 and 12 and vector page 3), then
	// restored to the second.
	if err := m.Restore(c1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Resume(); err != nil {
		t.Fatal(err)
	}
	want, stored := 0, 0
	for sp, mm := range m.memories() {
		dirty, ok := mm.AppendDirtyPages(nil)
		if !ok {
			t.Fatalf("%s: no dirty tracking after a restore", MemoryNames[sp])
		}
		want += unionBytes(&cfg, space(sp), dirty, unsharedPages(c1, c2, space(sp)))
		stored += unionBytes(&cfg, space(sp), dirty, storedPages(c1, space(sp)), storedPages(c2, space(sp)))
	}
	if err := m.Restore(c2); err != nil {
		t.Fatal(err)
	}
	if got := m.LastRestoreBytes(); got != want || want != 3*mem.PageBytes || stored != 6*mem.PageBytes {
		t.Fatalf("switch copied %d bytes, want %d (3 pages, not the %d bytes of every page either stores)", got, want, stored)
	}
	requireHolds(t, m, c2)
}

// TestSnapshotSwitchBetweenUnrelatedPrograms pins the switch between
// snapshots captured on separate machines, which share no page: it
// copies every page the machine dirtied or either snapshot stores, and
// leaves the machine holding exactly the new snapshot, both ways.
func TestSnapshotSwitchBetweenUnrelatedPrograms(t *testing.T) {
	cfg := snapConfig()
	prepare := func(src string, words map[int]uint32) *Snapshot {
		d := mustNew(t, cfg)
		for addr, v := range words {
			if err := d.WriteMainWord(addr, v); err != nil {
				t.Fatal(err)
			}
		}
		d.LoadProgram(mustAssemble(t, src).Instructions)
		return d.Snapshot()
	}
	// Each stores main page 0 (its input) and a page the other does not
	// store: main page 20 and main page 30.
	a := prepare(snapKernel, map[int]uint32{1000: 0x00400040, 20 * mem.PageBytes: 7})
	b := prepare(pageKernel, map[int]uint32{1004: 0x00800080, 30 * mem.PageBytes: 9})

	m := mustNew(t, cfg)
	if err := m.Restore(a); err != nil {
		t.Fatal(err)
	}
	from, to := a, b
	for round := 0; round < 4; round++ {
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		want := 0
		for sp, mm := range m.memories() {
			dirty, _ := mm.AppendDirtyPages(nil)
			want += unionBytes(&cfg, space(sp), dirty, storedPages(from, space(sp)), storedPages(to, space(sp)))
		}
		if err := m.Restore(to); err != nil {
			t.Fatal(err)
		}
		if got := m.LastRestoreBytes(); got != want {
			t.Fatalf("round %d: switch copied %d bytes, want %d", round, got, want)
		}
		requireHolds(t, m, to)
		from, to = to, from
	}
}
