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

// craftPageCount is a fresh machine's checkpoint whose page count — the
// body's last word, as a fresh machine stores no pages — claims
// 2^31-1 pages.
func craftPageCount(tb testing.TB, cfg Config) []byte {
	tb.Helper()
	raw := encodeCheckpoint(tb, mustNew(tb, cfg).Snapshot())
	binary.LittleEndian.PutUint32(raw[len(raw)-8:], math.MaxInt32)
	return resealCheckpoint(raw)
}

// craftPipeCount is a mid-run checkpoint whose config claims an issue
// queue deeper than any file could hold, so no ring-length limit stops a
// large count, and whose pipeline-state list count claims 2^31-1
// entries. fromEnd locates that count word: its distance from the end
// of the body, given the pipeline state and its wire length.
func craftPipeCount(t *testing.T, fromEnd func(p *pipeState, wireLen int) int) []byte {
	t.Helper()
	m := ckptMachine(t, DefaultConfig(), true)
	if _, _, err := m.RunUntil(17); err != nil {
		t.Fatal(err)
	}
	snap := m.Checkpoint()
	raw := encodeCheckpoint(t, snap)

	// Swap in a config with a 2^31-1-deep issue queue.
	cfgOff := len(ckptMagic) + 8
	cfgLen := int(binary.LittleEndian.Uint32(raw[cfgOff:]))
	cfg := snap.Config()
	cfg.IssueQueueDepth = math.MaxInt32
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	out = append(out, raw[:cfgOff]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(cfgJSON)))
	out = append(out, cfgJSON...)
	out = append(out, raw[cfgOff+4+cfgLen:]...)

	// The pipeline state closes the body.
	var pipe bytes.Buffer
	writePipeState(&pipe, snap.pipe)
	off := len(out) - 4 - fromEnd(snap.pipe, pipe.Len())
	binary.LittleEndian.PutUint32(out[off:], math.MaxInt32)
	return resealCheckpoint(out)
}

// TestCraftedCheckpointCountFailsBeforeSizing pins that a crafted list
// count in a CAMCKPT1 file is an error before anything is sized from it:
// the read allocates a small multiple of the file, not the gigabytes
// the count claims (which used to kill the process with an
// out-of-memory fatal error, not a recoverable panic).
func TestCraftedCheckpointCountFailsBeforeSizing(t *testing.T) {
	for _, c := range []struct {
		name string
		raw  []byte
	}{
		{"page count", craftPageCount(t, DefaultConfig())},
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
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := ReadCheckpoint(bytes.NewReader(c.raw))
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), "count 2147483647 ") {
				t.Fatalf("error = %v, want the crafted count rejected", err)
			}
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*len(c.raw)); got > limit {
				t.Errorf("rejecting a %d-byte file allocated %d bytes, want at most %d", len(c.raw), got, limit)
			}
		})
	}
}

// FuzzReadCheckpoint feeds arbitrary bytes to the CAMCKPT1 reader. Each
// input is framed with the magic and a valid CRC so it reaches the
// parser. A read must never panic (or die sizing a buffer from a
// crafted count); a successful read must re-encode, and that encoding
// must read back and re-encode to the same bytes.
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
		craftPageCount(f, cfg),
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
		first := encodeCheckpoint(t, snap)
		again, err := ReadCheckpoint(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not read back: %v", err)
		}
		if second := encodeCheckpoint(t, again); !bytes.Equal(first, second) {
			t.Fatal("re-encoding a read-back checkpoint changed the bytes")
		}
	})
}
