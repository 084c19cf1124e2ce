// Package ledger is the durable run ledger of the serving stack
// (docs/ROBUSTNESS.md, "Serving-layer robustness"): an append-only,
// CRC-checked write-ahead log that records every request's lifecycle —
// accepted → running → ok/failed/rejected/timeout — so a restarted
// daemon recovers its history instead of forgetting it. Replay on boot
// is bounded and tolerant: it stops cleanly at the first torn or
// corrupt record (the shape a crash mid-write leaves behind), truncates
// the torn tail, and surfaces runs that were still in flight at the
// crash as `interrupted` rows. Segments rotate at a size threshold and
// a compaction pass folds sealed segments into one snapshot of the
// latest row states, bounding disk alongside the bounded in-memory
// view.
//
// With Options.Dir empty the ledger is memory-only — the same API and
// bounded view, no durability — which keeps single-binary test setups
// and the historical camserve behaviour on one code path.
package ledger

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"cambricon/internal/chaos"
	"cambricon/internal/metrics"
	"cambricon/internal/reqtrace"
)

// Run lifecycle statuses. Accepted and Running are transient; everything
// else is terminal. A run whose latest durable status is transient when
// the daemon boots is rewritten as Interrupted.
const (
	StatusAccepted    = "accepted"
	StatusRunning     = "running"
	StatusOK          = "ok"
	StatusFailed      = "failed"
	StatusRejected    = "rejected"
	StatusTimeout     = "timeout"
	StatusCanceled    = "canceled"
	StatusInterrupted = "interrupted"
	StatusAborted     = "aborted"
)

// Terminal reports whether status is a final run state.
func Terminal(status string) bool {
	return status != StatusAccepted && status != StatusRunning
}

// Row is one run's ledger entry (and the POST /run success body in
// camserve). Every WAL event carries a full Row snapshot, so replay
// needs no cross-event joins.
type Row struct {
	ID           int64   `json:"id"`
	Benchmark    string  `json:"benchmark"`
	ConfigKey    string  `json:"config_key,omitempty"`
	TraceID      string  `json:"trace_id,omitempty"`
	Start        string  `json:"start"`
	Status       string  `json:"status"`
	HTTPStatus   int     `json:"http_status,omitempty"`
	Cycles       int64   `json:"cycles,omitempty"`
	Instructions int64   `json:"instructions,omitempty"`
	WallSeconds  float64 `json:"wall_seconds,omitempty"`
	Error        string  `json:"error,omitempty"`
	StatsDigest  string  `json:"stats_digest,omitempty"`
	// Recovered marks rows reconstructed by WAL replay rather than
	// recorded live by this process.
	Recovered bool `json:"recovered,omitempty"`
}

// Options configures Open.
type Options struct {
	// Dir is the WAL directory; "" runs the ledger memory-only.
	Dir string
	// SegmentBytes rotates the active segment past this size
	// (default 1 MiB).
	SegmentBytes int64
	// Retain bounds the in-memory view and the compaction output
	// (default 256 rows). Transient rows are never evicted.
	Retain int
	// CompactAfter triggers compaction when more sealed segments than
	// this accumulate (default 4).
	CompactAfter int
	// Sync fsyncs after every append; off, durability is the OS page
	// cache (survives SIGKILL, not power loss).
	Sync bool
	// Metrics, when non-nil, receives the cambricon_ledger_* families.
	Metrics *metrics.Registry
	// Logger receives append/compaction failures; nil discards.
	Logger *slog.Logger
	// Chaos, when non-nil, can tear WAL appends mid-record
	// (docs/ROBUSTNESS.md, "Chaos for the service path").
	Chaos *chaos.Chaos
}

// Recovery summarizes what Open replayed.
type Recovery struct {
	// Segments is the number of WAL segments found on disk.
	Segments int
	// Events is the number of good records replayed.
	Events int
	// Rows is the number of distinct runs recovered.
	Rows int
	// Interrupted is the number of runs surfaced as interrupted because
	// their latest durable status was still transient.
	Interrupted int
	// TornTail is true when the last segment ended in a torn or corrupt
	// record (truncated away on open).
	TornTail bool
	// TruncatedBytes is the torn-tail length removed from the last
	// segment.
	TruncatedBytes int64
	// BadSegments counts non-final segments that stopped replaying at a
	// corrupt record (their good prefix was still applied).
	BadSegments int
}

// Metric names exported by an instrumented ledger.
const (
	MetricAppends      = "cambricon_ledger_appends_total"
	MetricAppendErrors = "cambricon_ledger_append_errors_total"
	MetricBytes        = "cambricon_ledger_bytes_total"
	MetricSegments     = "cambricon_ledger_segments"
	MetricRows         = "cambricon_ledger_rows"
	MetricReplayed     = "cambricon_ledger_replayed_events_total"
	MetricInterrupted  = "cambricon_ledger_recovered_interrupted_total"
	MetricTornTails    = "cambricon_ledger_torn_tails_total"
	MetricCompactions  = "cambricon_ledger_compactions_total"
)

// rowState pairs a row with the sequence number of the event that
// produced it, for newest-seq-wins replay and compaction.
type rowState struct {
	row Row
	seq uint64
}

// Ledger is the durable run ledger. Safe for concurrent use.
type Ledger struct {
	opts   Options
	logger *slog.Logger

	appends      *metrics.Counter
	appendErrors *metrics.Counter
	bytesTotal   *metrics.Counter
	segGauge     *metrics.Gauge
	rowGauge     *metrics.Gauge
	compactions  *metrics.Counter

	mu      sync.Mutex
	f       *os.File
	segSeq  int64
	segSize int64
	sealed  []segmentRef
	seq     uint64 // last event sequence number issued
	lastID  int64  // highest run ID ever seen (for NewID)
	rows    map[int64]*rowState
	// order holds the retained rows by ascending ID. IDs are issued in
	// order, so a new row almost always goes at the end; two requests
	// that append concurrently can put one a few places before it.
	order  []*rowState
	closed bool
}

// Open replays dir (when set), truncates any torn tail, marks runs that
// were in flight at the crash as interrupted, opens a fresh active
// segment, and returns the recovered ledger.
func Open(opts Options) (*Ledger, Recovery, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 1 << 20
	}
	if opts.Retain <= 0 {
		opts.Retain = 256
	}
	if opts.CompactAfter <= 0 {
		opts.CompactAfter = 4
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	l := &Ledger{
		opts:         opts,
		logger:       logger,
		rows:         map[int64]*rowState{},
		appends:      opts.Metrics.Counter(MetricAppends, "run-ledger WAL appends"),
		appendErrors: opts.Metrics.Counter(MetricAppendErrors, "run-ledger WAL appends that failed to persist"),
		bytesTotal:   opts.Metrics.Counter(MetricBytes, "bytes appended to the run-ledger WAL"),
		segGauge:     opts.Metrics.Gauge(MetricSegments, "run-ledger WAL segments on disk (incl. active)"),
		rowGauge:     opts.Metrics.Gauge(MetricRows, "run rows held in the ledger's bounded view"),
		compactions:  opts.Metrics.Counter(MetricCompactions, "run-ledger compaction passes"),
	}
	var rec Recovery
	if opts.Dir == "" {
		return l, rec, nil
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, rec, fmt.Errorf("ledger: %w", err)
	}
	segs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, rec, fmt.Errorf("ledger: %w", err)
	}
	rec.Segments = len(segs)
	for i, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return nil, rec, fmt.Errorf("ledger: %w", err)
		}
		events, goodLen, serr := replaySegment(data)
		for _, ev := range events {
			l.applyLocked(ev)
		}
		rec.Events += len(events)
		if serr != nil {
			if i == len(segs)-1 {
				// The expected crash shape: a torn tail on the active
				// segment. Drop it so the file replays cleanly forever.
				rec.TornTail = true
				rec.TruncatedBytes = int64(len(data) - goodLen)
				if err := os.Truncate(seg.path, int64(goodLen)); err != nil {
					return nil, rec, fmt.Errorf("ledger: truncating torn tail: %w", err)
				}
				opts.Metrics.Counter(MetricTornTails, "torn WAL tails truncated on replay").Inc()
			} else {
				// Corruption mid-history: keep the good prefix, log, and
				// keep replaying later segments — newest-seq-wins replay
				// makes the order safe.
				rec.BadSegments++
				logger.Warn("ledger: corrupt segment; replayed good prefix only",
					"segment", seg.path, "err", serr)
			}
		}
		l.sealed = append(l.sealed, seg)
	}
	if len(segs) > 0 {
		l.segSeq = segs[len(segs)-1].seq
	}
	// Replayed rows are history, not live state.
	for _, st := range l.rows {
		st.row.Recovered = true
	}
	if err := l.openSegmentLocked(l.segSeq + 1); err != nil {
		return nil, rec, err
	}
	// Surface in-flight-at-crash runs as interrupted, durably, so the
	// next boot sees terminal state without re-deriving it.
	interrupted := opts.Metrics.Counter(MetricInterrupted, "in-flight-at-crash runs recovered as interrupted")
	for _, st := range l.rows {
		if Terminal(st.row.Status) {
			continue
		}
		row := st.row
		row.Status = StatusInterrupted
		row.Error = "daemon restarted while the run was in flight"
		l.seq++
		ev := event{Seq: l.seq, Time: time.Now().UTC().Format(time.RFC3339Nano), Row: row}
		l.applyLocked(ev)
		if err := l.writeLocked(ev); err != nil {
			logger.Warn("ledger: recording interrupted run", "id", row.ID, "err", err)
		}
		rec.Interrupted++
		interrupted.Inc()
	}
	rec.Rows = len(l.rows)
	opts.Metrics.Counter(MetricReplayed, "WAL events replayed on boot").Add(int64(rec.Events))
	l.rowGauge.Set(int64(len(l.rows)))
	l.segGauge.Set(int64(len(l.sealed) + 1))
	return l, rec, nil
}

// NewID issues the next run ID — monotonic across restarts, because
// replay recovers the high-water mark.
func (l *Ledger) NewID() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lastID++
	return l.lastID
}

// Append durably records one row snapshot and updates the in-memory
// view. The view is updated even when the durable write fails (the
// daemon keeps serving with degraded durability); the error reports the
// persistence failure so the caller can log it. A request recorder on
// ctx gets a "wal.append" span.
func (l *Ledger) Append(ctx context.Context, row Row) error {
	rec := reqtrace.From(ctx)
	sp := rec.Start(reqtrace.Root, "wal.append")
	defer rec.End(sp)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("ledger: closed")
	}
	l.seq++
	ev := event{Seq: l.seq, Time: time.Now().UTC().Format(time.RFC3339Nano), Row: row}
	l.applyLocked(ev)
	l.rowGauge.Set(int64(len(l.rows)))
	l.appends.Inc()
	rec.AnnotateStr(sp, "status", row.Status)
	err := l.writeLocked(ev)
	if err != nil {
		l.appendErrors.Inc()
		l.logger.Warn("ledger: append not persisted", "id", row.ID, "status", row.Status, "err", err)
	}
	return err
}

// applyLocked folds one event into the view, newest-seq-wins, and
// evicts the oldest terminal rows past the retain bound.
func (l *Ledger) applyLocked(ev event) {
	if ev.Row.ID > l.lastID {
		l.lastID = ev.Row.ID
	}
	// Track the sequence high-water mark so events issued after replay
	// (the interrupted rewrites, then live appends) outrank recovered
	// history.
	if ev.Seq > l.seq {
		l.seq = ev.Seq
	}
	st := l.rows[ev.Row.ID]
	if st == nil {
		st = &rowState{row: ev.Row, seq: ev.Seq}
		l.rows[ev.Row.ID] = st
		i := len(l.order)
		for i > 0 && l.order[i-1].row.ID > ev.Row.ID {
			i--
		}
		l.order = slices.Insert(l.order, i, st)
	} else if ev.Seq >= st.seq {
		st.row = ev.Row
		st.seq = ev.Seq
	}
	for len(l.order) > l.opts.Retain {
		// The oldest terminal row goes. Transient rows before it stay
		// where they are, shifted up one place.
		victim := slices.IndexFunc(l.order, func(st *rowState) bool { return Terminal(st.row.Status) })
		if victim < 0 {
			return // nothing terminal to evict; transient rows stay
		}
		delete(l.rows, l.order[victim].row.ID)
		copy(l.order[1:victim+1], l.order[:victim])
		l.order[0] = nil
		l.order = l.order[1:]
	}
}

// writeLocked frames ev and appends it to the active segment, rotating
// (and possibly compacting) past the size threshold. Memory-only
// ledgers return nil without touching disk.
func (l *Ledger) writeLocked(ev event) error {
	if l.f == nil {
		return nil
	}
	payload, err := json.Marshal(ev)
	if err != nil {
		return fmt.Errorf("ledger: encoding event: %w", err)
	}
	frame := encodeRecord(make([]byte, 0, len(payload)+recHeaderBytes), payload)
	if l.opts.Chaos.WALTear() {
		// Chaos: crash mid-write. Persist only a prefix of the frame —
		// exactly what a real torn write leaves — then seal the segment
		// so later appends land in a clean one, as a restart would.
		n, _ := l.f.Write(frame[:len(frame)/2])
		l.segSize += int64(n)
		if err := l.rotateLocked(); err != nil {
			l.logger.Warn("ledger: rotate after chaos tear", "err", err)
		}
		return fmt.Errorf("ledger: chaos tore WAL append (seq %d)", ev.Seq)
	}
	n, err := l.f.Write(frame)
	l.segSize += int64(n)
	l.bytesTotal.Add(int64(n))
	if err != nil {
		return fmt.Errorf("ledger: appending: %w", err)
	}
	if l.opts.Sync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("ledger: fsync: %w", err)
		}
	}
	if l.segSize >= l.opts.SegmentBytes {
		return l.rotateLocked()
	}
	return nil
}

// openSegmentLocked creates and switches to segment seq.
func (l *Ledger) openSegmentLocked(seq int64) error {
	path := filepath.Join(l.opts.Dir, segmentName(seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("ledger: opening segment: %w", err)
	}
	if _, err := f.Write([]byte(fileMagic)); err != nil {
		f.Close()
		return fmt.Errorf("ledger: writing segment header: %w", err)
	}
	syncDir(l.opts.Dir)
	l.f = f
	l.segSeq = seq
	l.segSize = int64(len(fileMagic))
	l.segGauge.Set(int64(len(l.sealed) + 1))
	return nil
}

// rotateLocked seals the active segment and opens the next, compacting
// when enough sealed segments have piled up.
func (l *Ledger) rotateLocked() error {
	if l.f == nil {
		return nil
	}
	l.f.Sync()
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("ledger: sealing segment: %w", err)
	}
	l.sealed = append(l.sealed, segmentRef{seq: l.segSeq, path: filepath.Join(l.opts.Dir, segmentName(l.segSeq))})
	l.f = nil
	if err := l.openSegmentLocked(l.segSeq + 1); err != nil {
		return err
	}
	if len(l.sealed) > l.opts.CompactAfter {
		if err := l.compactLocked(); err != nil {
			l.logger.Warn("ledger: compaction failed; segments kept", "err", err)
		}
	}
	return nil
}

// compactLocked folds every sealed segment into one snapshot segment
// holding the current row states (each with its original sequence
// number, so newest-seq-wins replay stays correct against the active
// segment and against any sealed segment a crash mid-compaction leaves
// behind). Crash-safe: the snapshot is written to a temp file, fsynced,
// renamed over the oldest sealed segment, and only then are the others
// deleted.
func (l *Ledger) compactLocked() error {
	if len(l.sealed) == 0 {
		return nil
	}
	buf := []byte(fileMagic)
	for _, st := range l.order {
		payload, err := json.Marshal(event{Seq: st.seq, Time: time.Now().UTC().Format(time.RFC3339Nano), Row: st.row})
		if err != nil {
			return fmt.Errorf("ledger: encoding compacted row: %w", err)
		}
		buf = encodeRecord(buf, payload)
	}
	tmp := filepath.Join(l.opts.Dir, "compact.tmp")
	if err := writeFileSync(tmp, buf); err != nil {
		return err
	}
	keep := l.sealed[0]
	if err := os.Rename(tmp, keep.path); err != nil {
		return fmt.Errorf("ledger: installing compacted segment: %w", err)
	}
	syncDir(l.opts.Dir)
	for _, seg := range l.sealed[1:] {
		if err := os.Remove(seg.path); err != nil {
			l.logger.Warn("ledger: removing compacted segment", "segment", seg.path, "err", err)
		}
	}
	l.sealed = l.sealed[:1]
	l.compactions.Inc()
	l.segGauge.Set(int64(len(l.sealed) + 1))
	return nil
}

// writeFileSync writes data to path and fsyncs it before returning.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("ledger: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("ledger: %w", err)
	}
	return f.Close()
}

// List returns the retained rows, newest (highest ID) first.
func (l *Ledger) List() []Row {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Row, 0, len(l.order))
	for i := len(l.order) - 1; i >= 0; i-- {
		out = append(out, l.order[i].row)
	}
	return out
}

// Get returns one row by run ID.
func (l *Ledger) Get(id int64) (Row, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	st, ok := l.rows[id]
	if !ok {
		return Row{}, false
	}
	return st.row, true
}

// Close syncs and seals the active segment. Further appends fail.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.f == nil {
		return nil
	}
	l.f.Sync()
	err := l.f.Close()
	l.f = nil
	return err
}

// StatsDigest returns a short, stable digest of a run's simulated
// outcome (cycles, instructions, and the CPI-stack stall counts in
// cause order) — the cheap cross-restart check that recovered history
// and fresh runs agree bit for bit.
func StatsDigest(cycles, instructions int64, stalls []int64) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	put(cycles)
	put(instructions)
	for _, s := range stalls {
		put(s)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
