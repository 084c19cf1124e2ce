package sim

import (
	"context"
	"io"
	"reflect"
	"testing"
	"time"

	"cambricon/internal/asm"
	"cambricon/internal/core"
	"cambricon/internal/trace"
)

// fuzzSeedImage encodes src into a binary program image for the fuzz
// corpus.
func fuzzSeedImage(f *testing.F, src string) []byte {
	f.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		f.Fatal(err)
	}
	img, err := core.EncodeProgram(p.Instructions)
	if err != nil {
		f.Fatal(err)
	}
	return img
}

// FuzzRunDecodedProgram feeds arbitrary binary images through the
// decoder and -- when they decode -- executes them under the watchdog.
// Whatever the fuzzer invents, the simulator must terminate with either
// clean stats or a structured error: no panic, no hang. This is the
// execution-side mirror of the assembler's FuzzAssemble/FuzzDecode.
func FuzzRunDecodedProgram(f *testing.F) {
	f.Add(fuzzSeedImage(f, "\tSMOVE $1, #5\n"))
	f.Add(fuzzSeedImage(f, "\tSMOVE $1, #3\nspin:\tSADD $1, $1, #-1\n\tCB #spin, $1\n"))
	f.Add(fuzzSeedImage(f, "spin:\tJUMP #spin\n")) // needs the watchdog
	f.Add(fuzzSeedImage(f, "\tSMOVE $0, #4\n\tSMOVE $1, #0\n\tVLOAD $1, $0, #100\n\tVSTORE $1, $0, #200\n"))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	cfg := DefaultConfig()
	cfg.MaxCycles = 1 << 16
	f.Fuzz(func(t *testing.T, img []byte) {
		if len(img) > 512*core.WordBytes {
			return // bound each case's runtime, not its validity
		}
		prog, err := core.DecodeProgram(img)
		if err != nil {
			return // rejected image is fine; panics are not
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatalf("default config rejected: %v", err)
		}
		m.LoadProgram(prog)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if _, err := m.RunContext(ctx); err == context.DeadlineExceeded {
			t.Fatalf("watchdog failed to bound a %d-instruction program", len(prog))
		}
		// Any other error (runtime fault, watchdog) is an acceptable
		// structured outcome for a fuzzed program.
	})
}

// FuzzPredecodedEquivalence feeds arbitrary binary images to two
// machines — one observed by a text trace to io.Discard, one
// unobserved — and requires identical outcomes: same statistics, same
// cycles, same registers, and the same error (or clean termination) for
// every program the decoder accepts, invalid instructions included. The
// watchdog is armed on both, so the fuzz covers watchdog trips with and
// without the text trace.
func FuzzPredecodedEquivalence(f *testing.F) {
	f.Add(fuzzSeedImage(f, "\tSMOVE $1, #5\n"))
	f.Add(fuzzSeedImage(f, "\tSMOVE $1, #3\nspin:\tSADD $1, $1, #-1\n\tCB #spin, $1\n"))
	f.Add(fuzzSeedImage(f, "spin:\tJUMP #spin\n")) // watchdog on both paths
	f.Add(fuzzSeedImage(f, "\tSMOVE $0, #4\n\tSMOVE $1, #0\n\tVLOAD $1, $0, #100\n\tVAV $1, $0, $1, $1\n\tVSTORE $1, $0, #200\n"))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	cfg := DefaultConfig()
	cfg.MaxCycles = 1 << 16
	f.Fuzz(func(t *testing.T, img []byte) {
		if len(img) > 512*core.WordBytes {
			return
		}
		prog, err := core.DecodeProgram(img)
		if err != nil {
			return
		}
		observed, err := New(cfg)
		if err != nil {
			t.Fatalf("default config rejected: %v", err)
		}
		observed.SetTracer(trace.NewText(io.Discard))
		observed.LoadProgram(prog)
		wantStats, wantErr := observed.Run()

		plain, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		plain.LoadProgram(prog)
		gotStats, gotErr := plain.Run()
		if (wantErr == nil) != (gotErr == nil) ||
			(wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Fatalf("errors diverge: observed %v, unobserved %v", wantErr, gotErr)
		}
		if !reflect.DeepEqual(wantStats, gotStats) {
			t.Fatalf("stats diverge:\nobserved   %+v\nunobserved %+v", wantStats, gotStats)
		}
		for r := 0; r < core.NumGPRs; r++ {
			if observed.GPR(uint8(r)) != plain.GPR(uint8(r)) {
				t.Fatalf("$%d = %d, observed run %d", r,
					int32(plain.GPR(uint8(r))), int32(observed.GPR(uint8(r))))
			}
		}
	})
}
