package sim

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"cambricon/internal/core"
	"cambricon/internal/mem"
)

// Checkpoint file format ("CAMCKPT1"): a versioned, integrity-checked
// serialization of a Snapshot, so a machine state can cross process
// boundaries (camsim -checkpoint / -resume). Layout, all integers
// little-endian:
//
//	magic   [8]byte  "CAMCKPT1"
//	version uint32   (currently 4; version 3 also had a flags word and
//	                 stored all four access slots of every memory-queue
//	                 entry, version 2 also the memory queue's maximum
//	                 done time, version 1 dense scratchpads; none is read)
//	config  uint32 length + JSON        (Config, all exported fields)
//	gpr     core.NumGPRs × uint32
//	pc      int64
//	rng     uint64
//	program uint32 length + core.EncodeProgram bytes (0 = none)
//	images  vector scratchpad, matrix scratchpad, main memory, each:
//	        uint64 size, uint32 pages, then per nonzero page ascending:
//	        uint32 index + uint32 length + bytes
//	stats   Stats, fixed-size (binary.Write)
//	scalars pipeScalars, fixed-size (binary.Write)
//	rings   iqIssued, robCommit, mq, mqRetire, each a uint32 length and
//	        its entries: int64 times, except that an mq entry is its
//	        int64 done time, a uint8 access count, then per access a
//	        uint8 space, a uint8 write flag, int64 address, int64 length
//	crc     uint32   IEEE CRC-32 of everything above
//
// The CRC and the per-field validation on read mean a truncated or
// bit-flipped file is an error, never a silently wrong machine state.
const (
	ckptMagic   = "CAMCKPT1"
	ckptVersion = 4
)

// ckptImages is the order the memory images appear in a checkpoint, with
// the name a read error gives each.
var ckptImages = [3]struct {
	sp   space
	name string
}{{spaceVec, "vector scratchpad"}, {spaceMat, "matrix scratchpad"}, {spaceMain, "main memory"}}

// WriteCheckpoint serializes s to w. The encoding is deterministic:
// identical snapshots produce identical bytes.
func WriteCheckpoint(w io.Writer, s *Snapshot) error {
	var buf bytes.Buffer
	buf.WriteString(ckptMagic)
	w32 := func(v uint32) { binary.Write(&buf, binary.LittleEndian, v) }
	w64 := func(v uint64) { binary.Write(&buf, binary.LittleEndian, v) }
	w32(ckptVersion)

	cfgJSON, err := json.Marshal(s.cfg)
	if err != nil {
		return fmt.Errorf("sim: checkpoint: marshal config: %w", err)
	}
	w32(uint32(len(cfgJSON)))
	buf.Write(cfgJSON)

	binary.Write(&buf, binary.LittleEndian, s.gpr)
	w64(uint64(int64(s.pc)))
	w64(s.rng)

	var progImg []byte
	if s.dec != nil && len(s.dec.insts) > 0 {
		if progImg, err = core.EncodeProgram(s.dec.insts); err != nil {
			return fmt.Errorf("sim: checkpoint: encode program: %w", err)
		}
	}
	w32(uint32(len(progImg)))
	buf.Write(progImg)

	for _, im := range ckptImages {
		img := s.img[im.sp]
		w64(uint64(img.Size()))
		pages := img.StoredPages()
		w32(uint32(len(pages)))
		for _, p := range pages {
			pg := img.Page(p)
			w32(uint32(p))
			w32(uint32(len(pg)))
			buf.Write(pg)
		}
	}

	binary.Write(&buf, binary.LittleEndian, &s.stats)
	writePipeState(&buf, &s.pipe)

	w32(crc32.ChecksumIEEE(buf.Bytes()))
	_, err = w.Write(buf.Bytes())
	return err
}

// writePipeState appends the pipeline state's scalars and rings. A
// memory-queue entry is written with its live accesses only.
func writePipeState(buf *bytes.Buffer, p *pipeState) {
	le := binary.LittleEndian
	binary.Write(buf, le, &p.pipeScalars)
	ring := func(vs []int64) {
		binary.Write(buf, le, uint32(len(vs)))
		binary.Write(buf, le, vs)
	}
	ring(p.iqIssued)
	ring(p.robCommit)
	binary.Write(buf, le, uint32(len(p.mq)))
	for i := range p.mq {
		q := &p.mq[i]
		binary.Write(buf, le, q.done)
		buf.WriteByte(q.acc.n)
		for _, a := range q.acc.list() {
			var write byte
			if a.write {
				write = 1
			}
			buf.WriteByte(byte(a.sp))
			buf.WriteByte(write)
			binary.Write(buf, le, [2]int64{int64(a.reg.Addr), int64(a.reg.N)})
		}
	}
	ring(p.mqRetire)
}

// ckptReader parses the checkpoint byte stream with bounds checking; the
// first short read latches an error so parsing code stays linear.
type ckptReader struct {
	b   []byte
	off int
	err error
}

func (r *ckptReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
		r.err = fmt.Errorf("sim: checkpoint: truncated at offset %d (need %d bytes)", r.off, n)
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

func (r *ckptReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *ckptReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *ckptReader) i64() int64 { return int64(r.u64()) }

// fixed reads a fixed-size value that binary.Write laid out.
func (r *ckptReader) fixed(v any) {
	if b := r.take(binary.Size(v)); b != nil {
		if err := binary.Read(bytes.NewReader(b), binary.LittleEndian, v); err != nil {
			r.err = fmt.Errorf("sim: checkpoint: %w", err)
		}
	}
}

func (r *ckptReader) cint() int {
	v := r.u32()
	if v > math.MaxInt32 {
		r.err = fmt.Errorf("sim: checkpoint: count %d out of range", v)
		return 0
	}
	return int(v)
}

// count reads the element count of a list whose every element takes at
// least minBytes on the wire, and rejects a count the bytes left cannot
// hold, so a crafted count fails before anything is sized from it.
func (r *ckptReader) count(minBytes int) int {
	n := r.cint()
	if r.err == nil && n > (len(r.b)-r.off)/minBytes {
		r.err = fmt.Errorf("sim: checkpoint: count %d at offset %d exceeds the %d bytes left",
			n, r.off-4, len(r.b)-r.off)
		return 0
	}
	return n
}

func (r *ckptReader) byte() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *ckptReader) i64s(maxLen int) []int64 {
	n := r.count(8)
	if r.err != nil {
		return nil
	}
	if n > maxLen {
		r.err = fmt.Errorf("sim: checkpoint: slice length %d exceeds limit %d", n, maxLen)
		return nil
	}
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = r.i64()
	}
	return vs
}

// ReadCheckpoint deserializes a checkpoint written by WriteCheckpoint.
// The CRC, magic, version and every structural invariant are verified,
// and the program is pre-decoded, as LoadProgram would.
func ReadCheckpoint(src io.Reader) (*Snapshot, error) {
	raw, err := io.ReadAll(src)
	if err != nil {
		return nil, fmt.Errorf("sim: checkpoint: read: %w", err)
	}
	if len(raw) < len(ckptMagic)+8 {
		return nil, fmt.Errorf("sim: checkpoint: file too short (%d bytes)", len(raw))
	}
	if string(raw[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("sim: checkpoint: bad magic %q", raw[:len(ckptMagic)])
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("sim: checkpoint: CRC mismatch (file %08x, computed %08x)", want, got)
	}
	r := &ckptReader{b: body, off: len(ckptMagic)}

	if v := r.u32(); r.err == nil && v != ckptVersion {
		return nil, fmt.Errorf("sim: checkpoint: unsupported version %d (want %d)", v, ckptVersion)
	}

	var cfg Config
	cfgJSON := r.take(r.cint())
	if r.err == nil {
		if err := json.Unmarshal(cfgJSON, &cfg); err != nil {
			return nil, fmt.Errorf("sim: checkpoint: parse config: %w", err)
		}
		if err := cfg.validate(); err != nil {
			return nil, fmt.Errorf("sim: checkpoint: invalid config: %w", err)
		}
	}

	s := &Snapshot{cfg: cfg}
	for i := range s.gpr {
		s.gpr[i] = r.u32()
	}
	s.pc = int(r.i64())
	s.rng = r.u64()

	if progImg := r.take(r.cint()); r.err == nil && len(progImg) > 0 {
		prog, err := core.DecodeProgram(progImg)
		if err != nil {
			return nil, fmt.Errorf("sim: checkpoint: decode program: %w", err)
		}
		if s.dec, err = Predecode(prog); err != nil {
			return nil, fmt.Errorf("sim: checkpoint: predecode program: %w", err)
		}
	}

	for _, im := range ckptImages {
		size := int(r.i64())
		nPages := r.count(8) // a page record is at least its index and length words
		if want := cfg.memBytes(im.sp); r.err == nil && size != want {
			return nil, fmt.Errorf("sim: checkpoint: %s image %d bytes, config says %d", im.name, size, want)
		}
		pages := make([]int, 0, nPages)
		contents := make([][]byte, 0, nPages)
		for i := 0; i < nPages && r.err == nil; i++ {
			pages = append(pages, r.cint())
			contents = append(contents, r.take(r.cint()))
		}
		if r.err == nil {
			if s.img[im.sp], err = mem.BuildSparseImage(size, pages, contents); err != nil {
				return nil, fmt.Errorf("sim: checkpoint: %s: %w", im.name, err)
			}
		}
	}

	r.fixed(&s.stats)
	if err := readPipeState(r, &cfg, &s.pipe); err != nil {
		return nil, err
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("sim: checkpoint: %d trailing bytes", len(body)-r.off)
	}
	return s, nil
}

// mqEntryMinBytes is the wire size of a memory-queue entry without
// accesses: its done time and access count.
const mqEntryMinBytes = 8 + 1

// readPipeState reads the pipeline state into p and checks it against
// the configuration.
func readPipeState(r *ckptReader, cfg *Config, p *pipeState) error {
	// Ring lengths are bounded by the configuration and, through count,
	// by the bytes left, so a corrupted length cannot force a huge
	// allocation even under a crafted configuration.
	maxRing := cfg.IssueQueueDepth + cfg.ROBDepth + cfg.MemQueueDepth
	r.fixed(&p.pipeScalars)
	p.iqIssued = r.i64s(maxRing)
	p.robCommit = r.i64s(maxRing)
	nMQ := r.count(mqEntryMinBytes)
	if r.err == nil && nMQ > maxRing {
		return fmt.Errorf("sim: checkpoint: memory queue length %d exceeds limit %d", nMQ, maxRing)
	}
	p.mq = make([]mqEntry, nMQ)
	for i := 0; i < nMQ && r.err == nil; i++ {
		q := &p.mq[i]
		q.done = r.i64()
		n := int(r.byte())
		if r.err == nil && n > len(q.acc.regs) {
			return fmt.Errorf("sim: checkpoint: memory queue entry has %d accesses", n)
		}
		for j := 0; j < n && r.err == nil; j++ {
			a := access{sp: space(r.byte()), write: r.byte() != 0}
			a.reg.Addr, a.reg.N = int(r.i64()), int(r.i64())
			q.acc.add(a)
		}
	}
	p.mqRetire = r.i64s(maxRing)
	if r.err != nil {
		return r.err
	}
	if len(p.iqIssued) != cfg.IssueQueueDepth || len(p.robCommit) != cfg.ROBDepth ||
		len(p.mq) != cfg.MemQueueDepth || len(p.mqRetire) != cfg.MemQueueDepth {
		return fmt.Errorf("sim: checkpoint: pipeline ring sizes %d/%d/%d/%d do not match config %d/%d/%d",
			len(p.iqIssued), len(p.robCommit), len(p.mq), len(p.mqRetire),
			cfg.IssueQueueDepth, cfg.ROBDepth, cfg.MemQueueDepth)
	}
	// The timing model indexes each ring at its position, so a position
	// outside its ring would panic the resumed run.
	for _, ring := range []struct {
		name string
		pos  int64
		n    int
	}{
		{"issue-queue", p.IQPos, len(p.iqIssued)},
		{"reorder-buffer", p.ROBPos, len(p.robCommit)},
		{"memory-queue", p.MQPos, len(p.mq)},
	} {
		if ring.pos < 0 || ring.pos >= int64(ring.n) {
			return fmt.Errorf("sim: checkpoint: %s position %d is outside its %d-entry ring", ring.name, ring.pos, ring.n)
		}
	}
	return nil
}
