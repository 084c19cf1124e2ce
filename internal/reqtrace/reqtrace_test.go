package reqtrace

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

const validHeader = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

func TestParseTraceparentValid(t *testing.T) {
	tp, ok := ParseTraceparent(validHeader)
	if !ok {
		t.Fatal("valid header rejected")
	}
	if got := tp.Trace.String(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace id %q", got)
	}
	if got := tp.Parent.String(); got != "00f067aa0ba902b7" {
		t.Fatalf("parent id %q", got)
	}
	if tp.Flags != 0x01 {
		t.Fatalf("flags %#x", tp.Flags)
	}
	// Round trip through the formatter.
	if got := tp.String(); got != validHeader {
		t.Fatalf("String() = %q, want %q", got, validHeader)
	}
	// A future version with trailing fields parses by the 00 layout.
	future := "cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"
	if ftp, ok := ParseTraceparent(future); !ok || ftp.Trace != tp.Trace {
		t.Fatalf("future-version header rejected: ok=%v tp=%+v", ok, ftp)
	}
}

func TestParseTraceparentMalformed(t *testing.T) {
	bad := []string{
		"",
		"00",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",     // missing flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-1",   // short flags
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",  // uppercase hex
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // reserved version
		"0x-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // non-hex version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",  // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",  // zero parent id
		"00-4bf92f3577b34da6a3ce929d0e0e4736_00f067aa0ba902b7-01",  // wrong delimiter
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x", // version 00 with trailing junk
		"00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01",  // non-hex trace id
	}
	for _, h := range bad {
		if _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted, want rejected", h)
		}
	}
}

func TestNewTraceparentMintsDistinctSampledRoots(t *testing.T) {
	a, b := NewTraceparent(), NewTraceparent()
	if a.Trace.IsZero() || a.Parent.IsZero() {
		t.Fatalf("zero ids in %+v", a)
	}
	if a.Trace == b.Trace {
		t.Fatal("two minted traceparents share a trace id")
	}
	if a.Flags&0x01 == 0 {
		t.Fatalf("minted root not sampled: flags %#x", a.Flags)
	}
}

func TestRecorderSpanTree(t *testing.T) {
	tp, _ := ParseTraceparent(validHeader)
	r := NewRecorder("request", tp)
	var fake time.Duration
	r.clock = func() time.Duration { fake += time.Millisecond; return fake }

	wait := r.Start(Root, "sem.acquire")
	r.AnnotateBool(wait, "rejected", false)
	r.End(wait)
	run := r.Start(Root, "sim.run")
	child := r.Start(run, "pool.acquire")
	r.AnnotateBool(child, "reused", true)
	r.End(child)
	r.AnnotateInt(run, "cycles", 12345)
	r.End(run)
	leak := r.Start(Root, "left.open") // closed by Finish at root end

	b := r.Finish()
	if b.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("bundle trace id %q", b.TraceID)
	}
	if len(b.SpanID) != 16 || b.SpanID == "00f067aa0ba902b7" {
		t.Fatalf("bundle span id %q should be fresh", b.SpanID)
	}
	if len(b.Spans) != 5 {
		t.Fatalf("got %d spans, want 5", len(b.Spans))
	}
	root := b.Spans[0]
	if root.Name != "request" || root.Parent != -1 || root.End == 0 {
		t.Fatalf("root span %+v", root)
	}
	if b.Spans[int(child)].Parent != int(run) {
		t.Fatalf("child parent = %d, want %d", b.Spans[int(child)].Parent, int(run))
	}
	if b.Spans[int(leak)].End != root.End {
		t.Fatalf("open span not closed at root end: %+v vs root end %v", b.Spans[int(leak)], root.End)
	}
	if got, ok := b.IntAttr("sim.run", "cycles"); !ok || got != 12345 {
		t.Fatalf("IntAttr(sim.run, cycles) = %d, %v", got, ok)
	}
	if _, ok := b.IntAttr("sim.run", "absent"); ok {
		t.Fatal("IntAttr found an absent key")
	}
	if d := b.Spans[0].Duration(); d != root.End {
		t.Fatalf("root span Duration() = %v, want %v", d, root.End)
	}
	// The outgoing traceparent keeps the trace id but swaps in our span id.
	out := r.Traceparent()
	if !strings.HasPrefix(out, "00-4bf92f3577b34da6a3ce929d0e0e4736-") || strings.Contains(out, "00f067aa0ba902b7") {
		t.Fatalf("outgoing traceparent %q", out)
	}
	if _, ok := ParseTraceparent(out); !ok {
		t.Fatalf("outgoing traceparent %q does not parse", out)
	}
}

// TestNilRecorderIsFree pins the nil contract: every method of a nil
// recorder is a no-op that allocates nothing, and From on a bare
// context returns nil.
func TestNilRecorderIsFree(t *testing.T) {
	ctx := context.Background()
	big := int64(1) << 40 // large enough that boxing it would allocate
	allocs := testing.AllocsPerRun(100, func() {
		r := From(ctx)
		sp := r.Start(Root, "phase")
		r.AnnotateInt(sp, "k", big)
		r.AnnotateStr(sp, "s", "v")
		r.AnnotateBool(sp, "b", true)
		r.End(sp)
		if r.TraceID() != "" || r.Traceparent() != "" {
			t.Fatal("nil recorder leaked identity")
		}
		if r.Finish() != nil {
			t.Fatal("nil recorder finished to a bundle")
		}
	})
	if allocs != 0 {
		t.Fatalf("nil-recorder path allocates %v per run, want 0", allocs)
	}
	if With(ctx, nil) != ctx {
		t.Fatal("With(ctx, nil) should return ctx unchanged")
	}
}

func TestContextRoundTrip(t *testing.T) {
	r := NewRecorder("request", Traceparent{})
	ctx := With(context.Background(), r)
	if From(ctx) != r {
		t.Fatal("From did not return the attached recorder")
	}
	if r.TraceID() == "" {
		t.Fatal("zero traceparent should mint a trace id")
	}
}

func TestStoreEviction(t *testing.T) {
	s := NewStore[int](3)
	for i, id := range []string{"1", "2", "3", "4"} {
		s.Put(id, i+1)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if _, ok := s.Get("1"); ok {
		t.Fatal("oldest entry not evicted")
	}
	for id, want := range map[string]int{"2": 2, "3": 3, "4": 4} {
		if v, ok := s.Get(id); !ok || v != want {
			t.Fatalf("Get(%q) = %d, %v; want %d", id, v, ok, want)
		}
	}
	// Replacing an entry neither grows nor evicts.
	s.Put("3", 33)
	if v, _ := s.Get("3"); v != 33 {
		t.Fatalf("replaced value = %d, want 33", v)
	}
	if s.Len() != 3 {
		t.Fatalf("Len after replace = %d, want 3", s.Len())
	}
	if _, ok := s.Get("2"); !ok {
		t.Fatal("replace evicted an unrelated entry")
	}
}

func TestBundleJSONRoundTrip(t *testing.T) {
	r := NewRecorder("request", Traceparent{})
	sp := r.Start(Root, "phase")
	r.AnnotateStr(sp, "note", "hello")
	r.End(sp)
	b := r.Finish()
	blob, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	var back Bundle
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.TraceID != b.TraceID || len(back.Spans) != len(b.Spans) {
		t.Fatalf("round trip lost data: %+v", back)
	}
}
