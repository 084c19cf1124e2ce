package sim

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
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

// craftPageCount is a fresh machine's checkpoint whose page count for
// one memory image — image indexes ckptImages: vector scratchpad,
// matrix scratchpad, main memory — claims 2^31-1 pages. A fresh machine
// stores no pages, so the body ends with the three images' 12-byte size
// and count pairs.
func craftPageCount(tb testing.TB, cfg Config, image int) []byte {
	tb.Helper()
	raw := encodeCheckpoint(tb, mustNew(tb, cfg).Snapshot())
	off := len(raw) - 4 - 12*(len(ckptImages)-image) + 8
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
// list count claims 2^31-1 entries. fromEnd locates that count word: its
// distance from the end of the body, given the pipeline state and its
// wire length.
func craftPipeCount(t *testing.T, fromEnd func(p *pipeState, wireLen int) int) []byte {
	t.Helper()
	m := ckptMachine(t, DefaultConfig(), true)
	if _, _, err := m.RunUntil(17); err != nil {
		t.Fatal(err)
	}
	snap := m.Checkpoint()
	raw := encodeCheckpoint(t, snap)

	cfg := snap.Config()
	cfg.IssueQueueDepth = maxEntries
	out := swapConfig(t, raw, cfg)

	// The pipeline state closes the body.
	var pipe bytes.Buffer
	writePipeState(&pipe, snap.pipe)
	off := len(out) - 4 - fromEnd(snap.pipe, pipe.Len())
	binary.LittleEndian.PutUint32(out[off:], math.MaxInt32)
	return resealCheckpoint(out)
}

// swapConfig replaces an encoded checkpoint's configuration with cfg,
// leaving the CRC for the caller to reseal.
func swapConfig(t *testing.T, raw []byte, cfg Config) []byte {
	t.Helper()
	cfgOff := len(ckptMagic) + 8
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
// before the body's last word, the empty page count) kept consistent,
// so nothing but the configuration's own bounds can reject it.
func craftConfig(t *testing.T, mod func(*Config)) []byte {
	t.Helper()
	cfg := DefaultConfig()
	raw := encodeCheckpoint(t, mustNew(t, cfg).Snapshot())
	mod(&cfg)
	out := swapConfig(t, raw, cfg)
	binary.LittleEndian.PutUint64(out[len(out)-16:], uint64(cfg.MainMemBytes))
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
		// The issue-queue length follows count, iqPos, robPos,
		// fetchCycle, fetchSlot and redirect.
		{"ring length", craftPipeCount(t, func(_ *pipeState, wireLen int) int {
			return wireLen - (8 + 4 + 4 + 8 + 4 + 8)
		})},
		// The memory-queue length precedes the entries, mqRetire, four
		// unit clocks and regReady.
		{"memory-queue length", craftPipeCount(t, func(p *pipeState, _ int) int {
			return 4 + len(p.mq)*mqEntryWireBytes + 4 + 8*len(p.mqRetire) + 4*8 + 8*len(p.regReady)
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
	snap := m.Checkpoint()
	set(snap.pipe)
	return encodeCheckpoint(tb, snap)
}

// TestCraftedCheckpointPositionFails pins that a ring position past its
// ring fails the read, naming the ring. Such a file used to read back
// and restore, and then `Resume` panicked with an index out of range.
func TestCraftedCheckpointPositionFails(t *testing.T) {
	for _, c := range []struct {
		ring string
		set  func(*pipeState)
	}{
		{"issue-queue", func(p *pipeState) { p.iqPos = 1000 }},
		{"reorder-buffer", func(p *pipeState) { p.robPos = 1000 }},
		{"memory-queue", func(p *pipeState) { p.mqPos = 1000 }},
	} {
		t.Run(c.ring, func(t *testing.T) {
			raw := craftPipePos(t, DefaultConfig(), c.set)
			_, err := ReadCheckpoint(bytes.NewReader(raw))
			if err == nil || !strings.Contains(err.Error(), c.ring+" position 1000 ") {
				t.Fatalf("error = %v, want the %s position rejected", err, c.ring)
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
		encodeCheckpoint(f, midRun.Checkpoint()),
		craftPageCount(f, cfg, 2),
		craftPipePos(f, cfg, func(p *pipeState) { p.mqPos = 1000 }),
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
