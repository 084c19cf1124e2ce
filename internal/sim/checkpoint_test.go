package sim

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"

	"cambricon/internal/core"
	"cambricon/internal/trace"
)

// ckptKernel exercises everything a mid-run checkpoint must carry: the
// PRNG (RV), scalar state, vector-scratchpad and main-memory traffic
// (dirty pages), a loop, and a VAV→VEXP chain whose consumer re-reads
// the vector its producer just wrote, so stop points between the two
// cover a chain split across segments.
const ckptKernel = `
	SMOVE  $1, #32          // element count
	SMOVE  $2, #0           // vspad region A
	SMOVE  $3, #4096        // vspad region B
	SMOVE  $8, #5           // loop counter
l:	RV     $2, $1           // fresh random vector each iteration
	VLOAD  $3, $1, #1000    // input from main
	VAV    $3, $1, $2, $3   // input + random
	VEXP   $3, $1, $3       // consumer of the VAV above
	VSTORE $3, $1, #2000    // result back to main
	SADD   $10, $10, #7
	SADD   $8, $8, #-1
	CB     #l, $8
`

// ckptMachine builds a machine running ckptKernel. predecoded installs a
// shared DecodedProgram, the way the bench decode cache does, and leaves
// runs unobserved. Otherwise — the baseline — the machine decodes its
// own copy in LoadProgram and a text trace to io.Discard observes its
// runs.
func ckptMachine(t testing.TB, cfg Config, predecoded bool) *Machine {
	t.Helper()
	m := mustNew(t, cfg)
	prog := mustAssemble(t, ckptKernel).Instructions
	if predecoded {
		dp, err := Predecode(prog)
		if err != nil {
			t.Fatal(err)
		}
		m.LoadDecoded(dp)
	} else {
		m.LoadProgram(prog)
		m.SetTracer(trace.NewText(io.Discard))
	}
	snapInit(t, m)
	return m
}

// compareResumed fails unless two machines agree on statistics, every
// GPR, and every byte of the memory spaces.
func compareResumed(t *testing.T, label string, want, got *Machine, wantStats, gotStats Stats) {
	t.Helper()
	if !reflect.DeepEqual(wantStats, gotStats) {
		t.Fatalf("%s: stats diverge:\nuninterrupted %+v\nresumed       %+v", label, wantStats, gotStats)
	}
	for r := 0; r < core.NumGPRs; r++ {
		if want.GPR(uint8(r)) != got.GPR(uint8(r)) {
			t.Fatalf("%s: $%d = %d, uninterrupted %d", label, r,
				int32(got.GPR(uint8(r))), int32(want.GPR(uint8(r))))
		}
	}
	compareMachineSpaces(t, label, want, got)
}

// TestCheckpointResumeBitIdentical stops a run at a spread of dynamic
// instruction boundaries — including ones between a vector producer and
// its consumer — captures a checkpoint, restores it onto a fresh machine,
// and requires the resumed remainder to be bit-identical to the
// uninterrupted run, on both the baseline (observed) and the pre-decoded
// (unobserved) paths. The fresh machine carries no trace, so on the
// baseline path a checkpoint taken in an observed run also resumes
// unobserved.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	for _, path := range []struct {
		name       string
		predecoded bool
	}{{"baseline", false}, {"predecoded", true}} {
		t.Run(path.name, func(t *testing.T) {
			cfg := DefaultConfig()
			ref := ckptMachine(t, cfg, path.predecoded)
			wantStats, err := ref.Run()
			if err != nil {
				t.Fatal(err)
			}
			total := wantStats.Instructions
			for _, k := range []int64{0, 1, 2, 7, 8, 9, total / 2, total - 1, total, total + 100} {
				m := ckptMachine(t, cfg, path.predecoded)
				partial, done, err := m.RunUntil(k)
				if err != nil {
					t.Fatalf("RunUntil(%d): %v", k, err)
				}
				if wantDone := k >= total; done != wantDone {
					t.Fatalf("RunUntil(%d): done=%v, want %v", k, done, wantDone)
				}
				if !done && partial.Instructions != k {
					t.Fatalf("RunUntil(%d) stopped at instruction %d", k, partial.Instructions)
				}
				ckpt := m.Snapshot()
				if ckpt.Instructions() != partial.Instructions {
					t.Fatalf("checkpoint at %d reports instructions=%d", k, ckpt.Instructions())
				}

				// Resume on the same machine.
				sameStats, err := m.Resume()
				if err != nil {
					t.Fatal(err)
				}
				compareResumed(t, path.name+"/same-machine", ref, m, wantStats, sameStats)

				// Restore the checkpoint onto a fresh machine and resume.
				fresh := mustNew(t, cfg)
				if err := fresh.Restore(ckpt); err != nil {
					t.Fatal(err)
				}
				freshStats, err := fresh.Resume()
				if err != nil {
					t.Fatal(err)
				}
				compareResumed(t, path.name+"/fresh-machine", ref, fresh, wantStats, freshStats)
			}
		})
	}
}

// TestCheckpointSegmentedTraceIdentical runs the kernel as a chain of
// RunUntil segments with a text trace attached and requires the
// concatenated segment traces to equal the uninterrupted run's byte for
// byte — indices, cycle numbers and PCs all carry across the stops.
func TestCheckpointSegmentedTraceIdentical(t *testing.T) {
	cfg := DefaultConfig()
	ref := ckptMachine(t, cfg, true)
	var want bytes.Buffer
	ref.SetTracer(trace.NewText(&want))
	if _, err := ref.Run(); err != nil {
		t.Fatal(err)
	}

	m := ckptMachine(t, cfg, true)
	var got bytes.Buffer
	m.SetTracer(trace.NewText(&got))
	for k := int64(3); ; k += 7 {
		_, done, err := m.RunUntil(k)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		// Hop through a checkpoint restore mid-trace to prove restores
		// do not perturb the observed run either.
		ckpt := m.Snapshot()
		if err := m.Restore(ckpt); err != nil {
			t.Fatal(err)
		}
	}
	if want.String() != got.String() {
		t.Fatalf("segmented trace diverges from uninterrupted trace:\nwant %d bytes\ngot  %d bytes",
			want.Len(), got.Len())
	}
}

// TestCheckpointWatchdogIdentical arms a tripping watchdog and requires
// the error surfaced after a mid-run checkpoint/restore/resume to be
// byte-identical to the uninterrupted run's — diagnostics include the
// dynamic index and cycle, so they prove the restored timing state.
func TestCheckpointWatchdogIdentical(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCycles = 200
	ref := ckptMachine(t, cfg, true)
	wantStats, wantErr := ref.Run()
	if wantErr == nil {
		t.Fatal("watchdog budget of 200 cycles did not trip")
	}
	if _, ok := wantErr.(*WatchdogError); !ok {
		t.Fatalf("want *WatchdogError, got %T: %v", wantErr, wantErr)
	}

	m := ckptMachine(t, cfg, true)
	if _, done, err := m.RunUntil(5); done || err != nil {
		t.Fatalf("RunUntil(5): done=%v err=%v", done, err)
	}
	fresh := mustNew(t, cfg)
	if err := fresh.Restore(m.Snapshot()); err != nil {
		t.Fatal(err)
	}
	gotStats, gotErr := fresh.Resume()
	if gotErr == nil || gotErr.Error() != wantErr.Error() {
		t.Fatalf("errors diverge:\nuninterrupted %v\nresumed       %v", wantErr, gotErr)
	}
	if !reflect.DeepEqual(wantStats, gotStats) {
		t.Fatalf("stats diverge:\nuninterrupted %+v\nresumed       %+v", wantStats, gotStats)
	}
}

// TestCheckpointRunBoundarySnapshotUnchanged pins that a snapshot taken
// before a run restores to reset timing state (stats zero), so a Run
// after the restore repeats the first run exactly.
func TestCheckpointRunBoundarySnapshotUnchanged(t *testing.T) {
	cfg := DefaultConfig()
	m := ckptMachine(t, cfg, true)
	snap := m.Snapshot()
	if snap.Instructions() != 0 {
		t.Fatalf("run-boundary snapshot reports instructions=%d", snap.Instructions())
	}
	want, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	got, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("restored rerun diverges:\nfirst  %+v\nsecond %+v", want, got)
	}
}

// TestReconfigureGeometry pins the Reconfigure contract: identical
// memory geometry is accepted (and the machine then runs under the new
// configuration), differing geometry is rejected.
func TestReconfigureGeometry(t *testing.T) {
	cfg := DefaultConfig()
	m := mustNew(t, cfg)

	alt := cfg
	alt.IssueWidth = 1
	alt.Seed = 0x1234
	if err := m.Reconfigure(alt); err != nil {
		t.Fatalf("same-geometry reconfigure rejected: %v", err)
	}
	pristine, err := PristineSnapshot(alt)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Restore(pristine); err != nil {
		t.Fatal(err)
	}
	m.LoadProgram(mustAssemble(t, ckptKernel).Instructions)
	snapInit(t, m)
	got, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}

	ref := mustNew(t, alt)
	ref.LoadProgram(mustAssemble(t, ckptKernel).Instructions)
	snapInit(t, ref)
	want, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("reconfigured machine diverges from fresh machine:\nfresh        %+v\nreconfigured %+v", want, got)
	}

	bad := cfg
	bad.MainMemBytes *= 2
	if err := m.Reconfigure(bad); err == nil || !strings.Contains(err.Error(), "geometry") {
		t.Fatalf("differing-geometry reconfigure: err=%v, want geometry error", err)
	}
}

// FuzzMidRunSnapshot feeds arbitrary binary program images and an
// arbitrary stop index through the mid-run snapshot machinery: run the
// program uninterrupted, then again stopped at the index, snapshot the
// machine, resume that machine to completion, and only then restore the
// snapshot onto a fresh machine and resume it too. Both resumed
// remainders must reproduce the uninterrupted run's statistics, error
// and registers exactly. Resuming the captured machine first is what
// shows a snapshot that aliases live state: the remainder would rewrite
// the shared state before the fresh machine restores it. The watchdog
// is armed so fuzzed livelocks terminate — and so watchdog trips
// themselves are covered on both sides of the stop.
func FuzzMidRunSnapshot(f *testing.F) {
	f.Add(fuzzSeedImage(f, "\tSMOVE $1, #5\n"), uint16(0))
	f.Add(fuzzSeedImage(f, "\tSMOVE $1, #3\nspin:\tSADD $1, $1, #-1\n\tCB #spin, $1\n"), uint16(4))
	f.Add(fuzzSeedImage(f, "spin:\tJUMP #spin\n"), uint16(9)) // watchdog trips after the stop
	f.Add(fuzzSeedImage(f, "\tSMOVE $0, #4\n\tSMOVE $1, #0\n\tVLOAD $1, $0, #100\n\tVAV $1, $0, $1, $1\n\tVSTORE $1, $0, #200\n"), uint16(3))
	cfg := DefaultConfig()
	cfg.MaxCycles = 1 << 16
	f.Fuzz(func(t *testing.T, img []byte, stop uint16) {
		if len(img) > 512*core.WordBytes {
			return
		}
		prog, err := core.DecodeProgram(img)
		if err != nil {
			return
		}
		dp, err := Predecode(prog)
		if err != nil {
			return // rejected programs are the other fuzzers' business
		}
		ref, err := New(cfg)
		if err != nil {
			t.Fatalf("default config rejected: %v", err)
		}
		ref.LoadDecoded(dp)
		wantStats, wantErr := ref.Run()

		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.LoadDecoded(dp)
		k := int64(stop)
		if wantStats.Instructions > 0 {
			k %= wantStats.Instructions + 1
		}
		partial, done, err := m.RunUntil(k)
		if err != nil {
			// The prefix died before reaching k: the uninterrupted run
			// must have died identically.
			if wantErr == nil || wantErr.Error() != err.Error() {
				t.Fatalf("prefix error %v, uninterrupted %v", err, wantErr)
			}
			return
		}
		if !done && partial.Instructions != k {
			t.Fatalf("RunUntil(%d) stopped at %d", k, partial.Instructions)
		}

		// check requires a resumed remainder to match the uninterrupted run.
		check := func(label string, got *Machine, gotStats Stats, gotErr error) {
			t.Helper()
			if (wantErr == nil) != (gotErr == nil) ||
				(wantErr != nil && wantErr.Error() != gotErr.Error()) {
				t.Fatalf("%s: errors diverge at stop %d: uninterrupted %v, resumed %v", label, k, wantErr, gotErr)
			}
			if !reflect.DeepEqual(wantStats, gotStats) {
				t.Fatalf("%s: stats diverge at stop %d:\nuninterrupted %+v\nresumed       %+v", label, k, wantStats, gotStats)
			}
			for r := 0; r < core.NumGPRs; r++ {
				if ref.GPR(uint8(r)) != got.GPR(uint8(r)) {
					t.Fatalf("%s: $%d = %d, uninterrupted %d", label, r,
						int32(got.GPR(uint8(r))), int32(ref.GPR(uint8(r))))
				}
			}
		}

		ckpt := m.Snapshot()
		sameStats, sameErr := m.Resume()
		check("same machine", m, sameStats, sameErr)

		fresh, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Restore(ckpt); err != nil {
			t.Fatal(err)
		}
		gotStats, gotErr := fresh.Resume()
		check("fresh machine", fresh, gotStats, gotErr)
	})
}
