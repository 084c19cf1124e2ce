package ledger

import (
	"cmp"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"cambricon/internal/chaos"
)

func mustOpen(t *testing.T, opts Options) (*Ledger, Recovery) {
	t.Helper()
	l, rec, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return l, rec
}

func appendRow(t *testing.T, l *Ledger, id int64, status string) {
	t.Helper()
	if err := l.Append(context.Background(), Row{ID: id, Benchmark: "MLP", Start: "t", Status: status}); err != nil {
		t.Fatalf("append id=%d status=%s: %v", id, status, err)
	}
}

func TestMemoryOnlyLedger(t *testing.T) {
	l, rec := mustOpen(t, Options{})
	if rec.Rows != 0 || rec.Segments != 0 {
		t.Fatalf("memory-only recovery %+v, want empty", rec)
	}
	if l.Segments() != 0 {
		t.Fatalf("memory-only Segments() = %d, want 0", l.Segments())
	}
	for i := 1; i <= 3; i++ {
		if id := l.NewID(); id != int64(i) {
			t.Fatalf("NewID #%d = %d", i, id)
		}
		appendRow(t, l, int64(i), StatusOK)
	}
	rows := l.List()
	if len(rows) != 3 || rows[0].ID != 3 || rows[2].ID != 1 {
		t.Fatalf("List = %+v, want ids newest-first 3,2,1", rows)
	}
	if r, ok := l.Get(2); !ok || r.Status != StatusOK {
		t.Fatalf("Get(2) = %+v, %v", r, ok)
	}
	if _, ok := l.Get(99); ok {
		t.Fatal("Get(99) found a row")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(context.Background(), Row{ID: 4, Status: StatusOK}); err == nil {
		t.Fatal("append after Close succeeded")
	}
}

func TestRetainEvictsOldestTerminalOnly(t *testing.T) {
	l, _ := mustOpen(t, Options{Retain: 3})
	for i := 1; i <= 5; i++ {
		appendRow(t, l, int64(i), StatusOK)
	}
	rows := l.List()
	if len(rows) != 3 || rows[0].ID != 5 || rows[2].ID != 3 {
		t.Fatalf("retained %+v, want 5,4,3", rows)
	}
	// Transient rows are never evicted, even past the bound.
	l2, _ := mustOpen(t, Options{Retain: 2})
	for i := 1; i <= 4; i++ {
		appendRow(t, l2, int64(i), StatusRunning)
	}
	if got := len(l2.List()); got != 4 {
		t.Fatalf("%d transient rows retained, want all 4", got)
	}
}

// scanRule is the retain rule written as a scan over every held row:
// after each event, while more than retain rows are held, the terminal
// row with the smallest ID goes. The ledger keeps its rows in ID order
// instead; this is the oracle it must match.
type scanRule struct {
	retain int
	rows   map[int64]Row
}

func (m *scanRule) apply(r Row) {
	m.rows[r.ID] = r
	for len(m.rows) > m.retain {
		victim := int64(-1)
		for id, row := range m.rows {
			if Terminal(row.Status) && (victim < 0 || id < victim) {
				victim = id
			}
		}
		if victim < 0 {
			return
		}
		delete(m.rows, victim)
	}
}

// list returns the held rows newest first, as Ledger.List does.
func (m *scanRule) list() []Row {
	out := make([]Row, 0, len(m.rows))
	for _, r := range m.rows {
		out = append(out, r)
	}
	slices.SortFunc(out, func(a, b Row) int { return cmp.Compare(b.ID, a.ID) })
	return out
}

// TestRetainMatchesScanRule drives a ledger and the scan rule with the
// same events and compares their rows after every append, then after a
// reopen that replays the compacted WAL. IDs are issued in order but
// first appended in shuffled groups of up to three, as concurrent
// requests append them, and some runs stay running for a long time, so
// the oldest rows are often transient and the first terminal row sits
// behind them.
func TestRetainMatchesScanRule(t *testing.T) {
	const retain = 8
	rng := rand.New(rand.NewSource(4))
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, SegmentBytes: 512, CompactAfter: 2, Retain: retain})
	model := &scanRule{retain: retain, rows: map[int64]Row{}}
	var live []int64 // runs not yet terminal
	lastID := int64(0)
	step := func(id int64, status string) {
		t.Helper()
		row := Row{ID: id, Benchmark: "MLP", Start: "t", Status: status}
		if err := l.Append(context.Background(), row); err != nil {
			t.Fatal(err)
		}
		model.apply(row)
		if got, want := l.List(), model.list(); !reflect.DeepEqual(got, want) {
			t.Fatalf("after id %d %s:\nledger %+v\nscan rule %+v", id, status, got, want)
		}
	}
	terminal := []string{StatusOK, StatusFailed, StatusTimeout, StatusRejected}
	for len(live) > 0 || lastID < 400 {
		if lastID < 400 && (len(live) < 3 || rng.Intn(3) == 0) {
			group := make([]int64, 1+rng.Intn(3))
			for i := range group {
				lastID++
				group[i] = lastID
			}
			rng.Shuffle(len(group), func(i, j int) { group[i], group[j] = group[j], group[i] })
			for _, id := range group {
				step(id, StatusAccepted)
				live = append(live, id)
			}
			continue
		}
		i := rng.Intn(len(live))
		id := live[i]
		// A run whose ID is a multiple of 7 stays running until the
		// IDs are used up, so the oldest rows are transient.
		if id%7 == 0 && lastID < 400 {
			step(id, StatusRunning)
			continue
		}
		if rng.Intn(2) == 0 {
			step(id, StatusRunning)
			continue
		}
		step(id, terminal[rng.Intn(len(terminal))])
		live = slices.Delete(live, i, i+1)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, _ := mustOpen(t, Options{Dir: dir, Retain: retain})
	defer l2.Close()
	want := model.list()
	for i := range want {
		want[i].Recovered = true
	}
	if got := l2.List(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after replay:\nledger %+v\nscan rule %+v", got, want)
	}
}

func TestReopenRecoversHistoryAndInterruptsInFlight(t *testing.T) {
	dir := t.TempDir()
	l1, _ := mustOpen(t, Options{Dir: dir})
	id1, id2 := l1.NewID(), l1.NewID()
	appendRow(t, l1, id1, StatusAccepted)
	appendRow(t, l1, id1, StatusRunning)
	appendRow(t, l1, id1, StatusOK)
	appendRow(t, l1, id2, StatusAccepted)
	appendRow(t, l1, id2, StatusRunning)
	// No Close: the crash shape. The OS page cache has the bytes.

	l2, rec := mustOpen(t, Options{Dir: dir})
	if rec.Rows != 2 || rec.Events != 5 || rec.Interrupted != 1 || rec.TornTail {
		t.Fatalf("recovery %+v, want 2 rows / 5 events / 1 interrupted / no torn tail", rec)
	}
	r1, _ := l2.Get(id1)
	if r1.Status != StatusOK || !r1.Recovered {
		t.Fatalf("row 1 = %+v, want recovered ok", r1)
	}
	r2, _ := l2.Get(id2)
	if r2.Status != StatusInterrupted || !r2.Recovered || r2.Error == "" {
		t.Fatalf("row 2 = %+v, want recovered interrupted with an error", r2)
	}
	if next := l2.NewID(); next != id2+1 {
		t.Fatalf("NewID after recovery = %d, want %d (monotonic across restarts)", next, id2+1)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	// Third boot: the interrupted rewrite was durable, so nothing is
	// interrupted again.
	l3, rec3 := mustOpen(t, Options{Dir: dir})
	if rec3.Interrupted != 0 {
		t.Fatalf("second recovery interrupted %d rows again: %+v", rec3.Interrupted, rec3)
	}
	if r2, _ := l3.Get(id2); r2.Status != StatusInterrupted {
		t.Fatalf("row 2 after third boot = %+v", r2)
	}
	l3.Close()
}

func TestTornTailTruncatedOnReplay(t *testing.T) {
	dir := t.TempDir()
	l1, _ := mustOpen(t, Options{Dir: dir})
	appendRow(t, l1, 1, StatusOK)
	appendRow(t, l1, 2, StatusOK)
	if err := l1.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: append half a record's worth of garbage to the
	// newest segment, the shape a crash mid-write leaves.
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	last := segs[len(segs)-1].path
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x1c, 0xb7, 0xc4, 0x52, 0xff})
	f.Close()
	before, _ := os.Stat(last)

	l2, rec := mustOpen(t, Options{Dir: dir})
	if !rec.TornTail || rec.TruncatedBytes != 5 {
		t.Fatalf("recovery %+v, want torn tail of 5 bytes", rec)
	}
	if rec.Rows != 2 || rec.Events != 2 {
		t.Fatalf("recovery %+v lost good records before the tear", rec)
	}
	after, _ := os.Stat(last)
	if after.Size() != before.Size()-5 {
		t.Fatalf("segment size %d after truncate, want %d", after.Size(), before.Size()-5)
	}
	l2.Close()

	// The truncation is durable: the next boot replays cleanly.
	l3, rec3 := mustOpen(t, Options{Dir: dir})
	if rec3.TornTail {
		t.Fatalf("torn tail reported again after truncation: %+v", rec3)
	}
	l3.Close()
}

func TestRotationAndCompactionBoundSegments(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, SegmentBytes: 256, CompactAfter: 2, Retain: 8})
	for i := 1; i <= 40; i++ {
		appendRow(t, l, int64(i), StatusOK)
	}
	if got := l.Segments(); got > 4 {
		t.Fatalf("%d segments after 40 appends; compaction is not bounding disk", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec := mustOpen(t, Options{Dir: dir, Retain: 8})
	if rec.Rows != 8 {
		t.Fatalf("recovered %d rows from compacted history, want the 8 retained", rec.Rows)
	}
	rows := l2.List()
	if rows[0].ID != 40 || rows[len(rows)-1].ID != 33 {
		t.Fatalf("recovered rows %+v, want ids 40..33", rows)
	}
	l2.Close()
}

func TestChaosTearIsSurvivable(t *testing.T) {
	dir := t.TempDir()
	ch, err := chaos.Parse("wal-tear=2")
	if err != nil {
		t.Fatal(err)
	}
	l, _ := mustOpen(t, Options{Dir: dir, Chaos: ch})
	appendRow(t, l, 1, StatusOK)
	// The second append is torn mid-frame and must report the failure...
	if err := l.Append(context.Background(), Row{ID: 2, Start: "t", Status: StatusOK}); err == nil {
		t.Fatal("torn append reported success")
	}
	// ...while the in-memory view still serves the row (degraded
	// durability, not a lost response).
	if r, ok := l.Get(2); !ok || r.Status != StatusOK {
		t.Fatalf("row 2 after torn append = %+v, %v", r, ok)
	}
	appendRow(t, l, 3, StatusOK)
	// SIGKILL shape: no Close.

	l2, rec := mustOpen(t, Options{Dir: dir})
	if rec.BadSegments != 1 {
		t.Fatalf("recovery %+v, want exactly the torn segment flagged bad", rec)
	}
	if r, ok := l2.Get(1); !ok || r.Status != StatusOK {
		t.Fatalf("row 1 = %+v, %v; the good prefix before the tear was lost", r, ok)
	}
	if r, ok := l2.Get(3); !ok || r.Status != StatusOK {
		t.Fatalf("row 3 = %+v, %v; appends after the tear were lost", r, ok)
	}
	// Row 2's only event was the torn one: gone, by design.
	if _, ok := l2.Get(2); ok {
		t.Fatal("torn row 2 replayed; the half-written record should be unreadable")
	}
	l2.Close()
}

func TestCorruptMidHistoryKeepsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, SegmentBytes: 1}) // rotate every append
	appendRow(t, l, 1, StatusOK)
	appendRow(t, l, 2, StatusOK)
	appendRow(t, l, 3, StatusOK)
	l.Close()
	segs, _ := listSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("only %d segments; the per-append rotation setup is wrong", len(segs))
	}
	// Flip a payload byte in the FIRST segment: mid-history corruption.
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xff
	if err := os.WriteFile(segs[0].path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, rec := mustOpen(t, Options{Dir: dir})
	if rec.BadSegments != 1 || rec.TornTail {
		t.Fatalf("recovery %+v, want 1 bad segment and no torn tail", rec)
	}
	for _, id := range []int64{2, 3} {
		if r, ok := l2.Get(id); !ok || r.Status != StatusOK {
			t.Fatalf("row %d = %+v, %v; corruption in segment 1 must not eat later segments", id, r, ok)
		}
	}
	l2.Close()
}

func TestForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hello"), 0o644)
	os.WriteFile(filepath.Join(dir, "wal-junk.wal"), []byte("nope"), 0o644)
	l, rec := mustOpen(t, Options{Dir: dir})
	if rec.Segments != 0 {
		t.Fatalf("recovery %+v counted foreign files as segments", rec)
	}
	appendRow(t, l, 1, StatusOK)
	l.Close()
	if _, err := os.Stat(filepath.Join(dir, "notes.txt")); err != nil {
		t.Fatalf("foreign file touched: %v", err)
	}
}

func TestStatsDigestStableAndSensitive(t *testing.T) {
	a := StatsDigest(100, 50, []int64{1, 2, 3})
	if b := StatsDigest(100, 50, []int64{1, 2, 3}); b != a {
		t.Fatalf("digest not deterministic: %s vs %s", a, b)
	}
	if c := StatsDigest(100, 50, []int64{1, 2, 4}); c == a {
		t.Fatal("digest insensitive to stall counts")
	}
	if d := StatsDigest(101, 50, []int64{1, 2, 3}); d == a {
		t.Fatal("digest insensitive to cycles")
	}
	if len(a) != 16 {
		t.Fatalf("digest %q, want 16 hex chars", a)
	}
}

func TestTerminal(t *testing.T) {
	for _, st := range []string{StatusOK, StatusFailed, StatusRejected, StatusTimeout, StatusCanceled, StatusInterrupted, StatusAborted} {
		if !Terminal(st) {
			t.Fatalf("Terminal(%s) = false", st)
		}
	}
	for _, st := range []string{StatusAccepted, StatusRunning} {
		if Terminal(st) {
			t.Fatalf("Terminal(%s) = true", st)
		}
	}
}

func TestOpenDirFailure(t *testing.T) {
	// A file where the directory should be is a boot error, not a panic.
	dir := t.TempDir()
	path := filepath.Join(dir, "occupied")
	os.WriteFile(path, []byte("x"), 0o644)
	_, _, err := Open(Options{Dir: path})
	if err == nil {
		t.Fatal("Open over a file succeeded")
	}
	var pe *os.PathError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a path error", err)
	}
}
