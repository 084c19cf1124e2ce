package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"strings"
	"testing"
)

// resealCheckpoint recomputes a checkpoint's trailing CRC in place, so a
// crafted body reaches the parser instead of failing the integrity check.
func resealCheckpoint(raw []byte) []byte {
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.ChecksumIEEE(raw[:len(raw)-4]))
	return raw
}

// encodeCheckpoint is WriteCheckpoint into a fresh byte slice.
func encodeCheckpoint(tb testing.TB, s *Snapshot) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, s); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// stateBytes is the length of the statistics and pipeline state that
// close the body of s's checkpoint.
func stateBytes(s *Snapshot) int {
	var pipe bytes.Buffer
	writePipeState(&pipe, &s.pipe)
	return binary.Size(&s.stats) + pipe.Len()
}

// craftPageCount is a fresh machine's checkpoint whose page count for
// one memory image — image indexes ckptImages: vector scratchpad,
// matrix scratchpad, main memory — claims 2^31-1 pages. A fresh machine
// stores no pages, so the images end with their three 12-byte size and
// count pairs, just before the statistics and pipeline state.
func craftPageCount(tb testing.TB, cfg Config, image int) []byte {
	tb.Helper()
	snap := mustNew(tb, cfg).Snapshot()
	raw := encodeCheckpoint(tb, snap)
	off := len(raw) - 4 - stateBytes(snap) - 12*(len(ckptImages)-image) + 8
	binary.LittleEndian.PutUint32(raw[off:], math.MaxInt32)
	return resealCheckpoint(raw)
}

// readAlloc reads raw as a checkpoint a few times and returns the
// fewest bytes one read allocated, with the last read's error. A crafted
// size that the reader trusted would be allocated by every read; the
// minimum leaves out what the test binary's other goroutines happen to
// allocate meanwhile, which is of the order of a small checkpoint file.
func readAlloc(raw []byte) (uint64, error) {
	least := uint64(math.MaxUint64)
	var err error
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = ReadCheckpoint(bytes.NewReader(raw))
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least, err
}

// craftPipeCount is a mid-run checkpoint whose config claims the deepest
// issue queue validate allows, far deeper than the file holds, so the
// ring-length limit is as loose as it gets, and whose pipeline-state
// list count claims 2^31-1 entries. at locates that count word: its
// offset in the pipeline state, which closes the body.
func craftPipeCount(t *testing.T, at func(p *pipeState) int) []byte {
	t.Helper()
	m := ckptMachine(t, DefaultConfig(), true)
	if _, _, err := m.RunUntil(17); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	raw := encodeCheckpoint(t, snap)

	cfg := snap.Config()
	cfg.IssueQueueDepth = maxEntries
	out := swapConfig(t, raw, cfg)

	var pipe bytes.Buffer
	writePipeState(&pipe, &snap.pipe)
	off := len(out) - 4 - pipe.Len() + at(&snap.pipe)
	binary.LittleEndian.PutUint32(out[off:], math.MaxInt32)
	return resealCheckpoint(out)
}

// swapConfig replaces an encoded checkpoint's configuration with cfg,
// leaving the CRC for the caller to reseal.
func swapConfig(t *testing.T, raw []byte, cfg Config) []byte {
	t.Helper()
	cfgOff := len(ckptMagic) + 4
	cfgLen := int(binary.LittleEndian.Uint32(raw[cfgOff:]))
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	out = append(out, raw[:cfgOff]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(cfgJSON)))
	out = append(out, cfgJSON...)
	return append(out, raw[cfgOff+4+cfgLen:]...)
}

// craftConfig is a fresh machine's run-boundary checkpoint whose config
// is DefaultConfig changed by mod, with the main-image size word (just
// before the image's empty page count, the last word ahead of the
// statistics and pipeline state) kept consistent, so nothing but the
// configuration's own bounds can reject it.
func craftConfig(t *testing.T, mod func(*Config)) []byte {
	t.Helper()
	cfg := DefaultConfig()
	snap := mustNew(t, cfg).Snapshot()
	raw := encodeCheckpoint(t, snap)
	mod(&cfg)
	out := swapConfig(t, raw, cfg)
	binary.LittleEndian.PutUint64(out[len(out)-4-stateBytes(snap)-12:], uint64(cfg.MainMemBytes))
	return resealCheckpoint(out)
}

// TestCraftedCheckpointConfigFailsBeforeSizing pins that a checkpoint's
// configuration cannot size an allocation: a valid-CRC file asking for
// 1 TiB of main memory or a 2^31-1-entry issue queue used to read back
// fine and then kill `camsim -resume` with an out-of-memory fatal error
// inside sim.New. Now the read fails, naming the field, after allocating
// a small multiple of the file.
func TestCraftedCheckpointConfigFailsBeforeSizing(t *testing.T) {
	for _, c := range []struct {
		field string
		mod   func(*Config)
	}{
		{"MainMemBytes", func(c *Config) { c.MainMemBytes = 1 << 40 }},
		{"IssueQueueDepth", func(c *Config) { c.IssueQueueDepth = math.MaxInt32 }},
	} {
		t.Run(c.field, func(t *testing.T) {
			raw := craftConfig(t, c.mod)
			got, err := readAlloc(raw)
			if err == nil || !strings.Contains(err.Error(), c.field+" ") {
				t.Fatalf("error = %v, want %s rejected", err, c.field)
			}
			if limit := uint64(8 * len(raw)); got > limit {
				t.Errorf("rejecting a %d-byte file allocated %d bytes, want at most %d", len(raw), got, limit)
			}
		})
	}
}

// TestConfigBoundsAdmitTheirLimits pins the bounds themselves: each
// allocation-sizing field is accepted at its limit and rejected, by
// name, past it. (The configurations the repo builds — DefaultConfig,
// the ablations, the sweeps, the shrunken pipelines of the timing tests —
// run through validate in their own tests.)
func TestConfigBoundsAdmitTheirLimits(t *testing.T) {
	for _, c := range []struct {
		field string
		limit int
		set   func(*Config, int)
	}{
		{"MainMemBytes", maxMemBytes, func(c *Config, v int) { c.MainMemBytes = v }},
		{"VectorSpadBytes", maxMemBytes, func(c *Config, v int) { c.VectorSpadBytes = v }},
		{"MatrixSpadBytes", maxMemBytes, func(c *Config, v int) { c.MatrixSpadBytes = v }},
		{"IssueQueueDepth", maxEntries, func(c *Config, v int) { c.IssueQueueDepth = v }},
		{"ROBDepth", maxEntries, func(c *Config, v int) { c.ROBDepth = v }},
		{"MemQueueDepth", maxEntries, func(c *Config, v int) { c.MemQueueDepth = v }},
		{"SpadBanks", maxEntries, func(c *Config, v int) { c.SpadBanks = v }},
	} {
		cfg := DefaultConfig()
		c.set(&cfg, c.limit)
		if err := cfg.validate(); err != nil {
			t.Errorf("%s at its limit %d: %v", c.field, c.limit, err)
		}
		cfg = DefaultConfig()
		c.set(&cfg, 2*c.limit) // past it, and still a power of two for SpadBanks
		if err := cfg.validate(); err == nil || !strings.Contains(err.Error(), c.field+" ") {
			t.Errorf("%s at %d: error = %v, want it rejected by name", c.field, 2*c.limit, err)
		}
	}
	cfg := DefaultConfig()
	if err := cfg.validate(); err != nil {
		t.Errorf("DefaultConfig: %v", err)
	}
}

// TestCraftedCheckpointCountFailsBeforeSizing pins that a crafted list
// count in a CAMCKPT1 file — the page count of any of the three memory
// images, or a pipeline ring length — is an error before anything is
// sized from it:
// the read allocates a small multiple of the file, not the gigabytes
// the count claims (which used to kill the process with an
// out-of-memory fatal error, not a recoverable panic).
func TestCraftedCheckpointCountFailsBeforeSizing(t *testing.T) {
	for _, c := range []struct {
		name string
		raw  []byte
	}{
		{"page count", craftPageCount(t, DefaultConfig(), 2)},
		{"vector-pad page count", craftPageCount(t, DefaultConfig(), 0)},
		{"matrix-pad page count", craftPageCount(t, DefaultConfig(), 1)},
		// The issue-queue length follows the scalars.
		{"ring length", craftPipeCount(t, func(*pipeState) int {
			return binary.Size(pipeScalars{})
		})},
		// The memory-queue length follows the issue-queue and
		// reorder-buffer rings.
		{"memory-queue length", craftPipeCount(t, func(p *pipeState) int {
			return binary.Size(pipeScalars{}) + 4 + 8*len(p.iqIssued) + 4 + 8*len(p.robCommit)
		})},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, err := readAlloc(c.raw)
			if err == nil || !strings.Contains(err.Error(), "count 2147483647 ") {
				t.Fatalf("error = %v, want the crafted count rejected", err)
			}
			if limit := uint64(8 * len(c.raw)); got > limit {
				t.Errorf("rejecting a %d-byte file allocated %d bytes, want at most %d", len(c.raw), got, limit)
			}
		})
	}
}

// craftPipePos is a valid-CRC mid-run checkpoint of the checkpoint
// kernel on cfg, with its pipeline state changed by set.
func craftPipePos(tb testing.TB, cfg Config, set func(*pipeState)) []byte {
	tb.Helper()
	m := ckptMachine(tb, cfg, true)
	if _, _, err := m.RunUntil(17); err != nil {
		tb.Fatal(err)
	}
	snap := m.Snapshot()
	set(&snap.pipe)
	return encodeCheckpoint(tb, snap)
}

// TestCraftedCheckpointPositionFails pins that a ring position outside
// its ring, past its end or negative, fails the read, naming the ring.
// A position past the end used to read back and restore, and then
// `Resume` panicked with an index out of range; positions are int64 on
// the wire, so a file can also hold a negative one.
func TestCraftedCheckpointPositionFails(t *testing.T) {
	for _, c := range []struct {
		ring string
		set  func(*pipeState, int64)
	}{
		{"issue-queue", func(p *pipeState, v int64) { p.IQPos = v }},
		{"reorder-buffer", func(p *pipeState, v int64) { p.ROBPos = v }},
		{"memory-queue", func(p *pipeState, v int64) { p.MQPos = v }},
	} {
		t.Run(c.ring, func(t *testing.T) {
			for _, pos := range []int64{1000, -1} {
				raw := craftPipePos(t, DefaultConfig(), func(p *pipeState) { c.set(p, pos) })
				_, err := ReadCheckpoint(bytes.NewReader(raw))
				if want := fmt.Sprintf("%s position %d ", c.ring, pos); err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("error = %v, want the %s position %d rejected", err, c.ring, pos)
				}
			}
		})
	}
}

// FuzzReadCheckpoint feeds arbitrary bytes to the CAMCKPT1 reader. Each
// input is framed with the magic and a valid CRC so it reaches the
// parser. A read must never panic (or die sizing a buffer from a
// crafted count); a successful read must build a machine from its
// configuration (what `camsim -resume` does next) and must re-encode,
// and that encoding must read back and re-encode to the same bytes.
// Then the checkpoint must restore onto that machine, and resuming it
// under a watchdog may fail but must not panic.
func FuzzReadCheckpoint(f *testing.F) {
	// Small memories keep the seeds, and so the mutations, short.
	cfg := DefaultConfig()
	cfg.VectorSpadBytes = 8 << 10
	cfg.MatrixSpadBytes = 1 << 10
	cfg.MainMemBytes = 16 << 10
	fresh := mustNew(f, cfg)
	midRun := ckptMachine(f, cfg, true)
	if _, _, err := midRun.RunUntil(17); err != nil {
		f.Fatal(err)
	}
	for _, raw := range [][]byte{
		encodeCheckpoint(f, fresh.Snapshot()),
		encodeCheckpoint(f, midRun.Snapshot()),
		craftPageCount(f, cfg, 2),
		craftPipePos(f, cfg, func(p *pipeState) { p.MQPos = 1000 }),
		craftPipePos(f, cfg, func(p *pipeState) { p.ROBPos = -1 }),
	} {
		f.Add(raw[len(ckptMagic) : len(raw)-4])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		raw := append([]byte(ckptMagic), body...)
		raw = binary.LittleEndian.AppendUint32(raw, crc32.ChecksumIEEE(raw))
		snap, err := ReadCheckpoint(bytes.NewReader(raw))
		if err != nil {
			return
		}
		m, err := New(snap.Config())
		if err != nil {
			t.Fatalf("a checkpoint that reads back builds no machine: %v", err)
		}
		first := encodeCheckpoint(t, snap)
		again, err := ReadCheckpoint(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not read back: %v", err)
		}
		if second := encodeCheckpoint(t, again); !bytes.Equal(first, second) {
			t.Fatal("re-encoding a read-back checkpoint changed the bytes")
		}
		if err := m.Restore(snap); err != nil {
			t.Fatalf("a checkpoint that reads back does not restore onto its own machine: %v", err)
		}
		m.SetMaxCycles(100000)
		// A crafted state may end the run in an error; only a panic fails.
		_, _ = m.Resume()
	})
}

// TestCheckpointLayoutPinned pins the CAMCKPT1 encoding of a pristine
// snapshot under a small fixed configuration by its length and SHA-256.
// The encoding does not depend on the timing model, but it changes
// whenever Config, Stats or the pipeline state change shape, and a
// reader built for one shape misreads a file of another. Such a change
// must bump ckptVersion, so that old files are refused by name, and
// then update the constants here.
func TestCheckpointLayoutPinned(t *testing.T) {
	cfg := Config{
		IssueWidth: 2, IssueQueueDepth: 3, MemQueueDepth: 2, ROBDepth: 4,
		VectorSpadBytes: 4 << 10, MatrixSpadBytes: 4 << 10, BankBytes: 64, SpadBanks: 4,
		VectorLanes: 32, MatrixBlocks: 32, MACsPerBlock: 32, HTreeOverhead: 6,
		CordicBeatCycles: 4, DivBeatCycles: 4,
		MainMemBytes: 8 << 10, DMAStartupCycles: 24, DMABytesPerCycle: 32,
		BranchPenaltyCycles: 4, ClockHz: 1e9, Seed: 7,
		MaxDynamicInstructions: 1 << 20, MaxCycles: 1 << 20,
	}
	snap, err := PristineSnapshot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw := encodeCheckpoint(t, snap)
	const (
		wantLen    = 2133
		wantSHA256 = "ac277c0a2341733484980a2b2393b5e14e67cb8cfecf2fce078f4409c0bf24d6"
	)
	if sum := sha256.Sum256(raw); len(raw) != wantLen || hex.EncodeToString(sum[:]) != wantSHA256 {
		t.Fatalf("a pristine snapshot now encodes to %d bytes with SHA-256 %x, not %d bytes with %s: "+
			"the CAMCKPT1 layout changed, so bump ckptVersion (now %d) and update the constants",
			len(raw), sum, wantLen, wantSHA256, ckptVersion)
	}
}
