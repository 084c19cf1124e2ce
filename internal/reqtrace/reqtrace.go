// Package reqtrace is the request-scoped tracing layer of the serving
// stack: where internal/trace answers "where did the simulated cycles of
// one run go" and internal/metrics answers "how is the fleet behaving",
// this package answers "where did the wall time of one request go" — a
// span tree covering HTTP ingress, semaphore wait, pool acquire,
// snapshot restore and the simulation itself,
// joined to the outside world through W3C `traceparent` propagation.
//
// The contract mirrors trace.Tracer's and metrics.Registry's: tracing
// must be free when unused. Every Recorder method is nil-safe — a nil
// *Recorder is a no-op receiver, and From returns nil on a context with
// no recorder attached — so instrumented request paths stay
// allocation-free and produce bit-identical simulated statistics when
// nobody is recording.
package reqtrace

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// TraceID is the 16-byte W3C trace id shared by every span of one
// distributed trace.
type TraceID [16]byte

// SpanID is the 8-byte W3C span (parent) id.
type SpanID [8]byte

// IsZero reports whether the id is all zeroes (invalid per the spec).
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the id is all zeroes (invalid per the spec).
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the id as lowercase hex.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the id as lowercase hex.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// Traceparent is the parsed form of the W3C `traceparent` header
// (version 00): the trace id, the caller's span id, and the trace flags
// (bit 0 = sampled).
type Traceparent struct {
	Trace  TraceID
	Parent SpanID
	Flags  byte
}

// String renders the version-00 header form:
// 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01.
func (tp Traceparent) String() string {
	buf := make([]byte, 0, 55)
	buf = append(buf, '0', '0', '-')
	buf = hex.AppendEncode(buf, tp.Trace[:])
	buf = append(buf, '-')
	buf = hex.AppendEncode(buf, tp.Parent[:])
	buf = append(buf, '-')
	buf = hex.AppendEncode(buf, []byte{tp.Flags})
	return string(buf)
}

// hexField decodes exactly len(dst)*2 lowercase hex characters. The W3C
// spec forbids uppercase, so this is stricter than encoding/hex.
func hexField(dst []byte, s string) bool {
	if len(s) != 2*len(dst) {
		return false
	}
	for i := range dst {
		hi, okh := hexNibble(s[2*i])
		lo, okl := hexNibble(s[2*i+1])
		if !okh || !okl {
			return false
		}
		dst[i] = hi<<4 | lo
	}
	return true
}

func hexNibble(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}

// ParseTraceparent parses a W3C traceparent header. It accepts version
// 00 exactly, and future versions whose first four fields keep the
// version-00 layout (per the spec's forward-compatibility rule). It
// returns ok=false — the caller should mint a new root — for anything
// malformed: wrong field lengths, uppercase hex, the reserved version
// ff, or all-zero trace/parent ids.
func ParseTraceparent(h string) (Traceparent, bool) {
	var tp Traceparent
	if len(h) < 55 {
		return tp, false
	}
	if len(h) > 55 {
		// A longer header is only valid for versions > 00, which must
		// append new fields after a dash.
		if h[:2] == "00" || h[55] != '-' {
			return tp, false
		}
	}
	var version [1]byte
	if !hexField(version[:], h[0:2]) || version[0] == 0xff {
		return tp, false
	}
	if h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return tp, false
	}
	if !hexField(tp.Trace[:], h[3:35]) || !hexField(tp.Parent[:], h[36:52]) {
		return tp, false
	}
	var flags [1]byte
	if !hexField(flags[:], h[53:55]) {
		return tp, false
	}
	tp.Flags = flags[0]
	if tp.Trace.IsZero() || tp.Parent.IsZero() {
		return tp, false
	}
	return tp, true
}

// NewTraceparent mints a new sampled root: random trace and parent ids,
// flags 01.
func NewTraceparent() Traceparent {
	var tp Traceparent
	randomID(tp.Trace[:])
	randomID(tp.Parent[:])
	tp.Flags = 0x01
	return tp
}

// randomID fills b with non-zero random bytes (all-zero ids are invalid
// per the W3C spec; crypto/rand never fails on supported platforms).
func randomID(b []byte) {
	for {
		rand.Read(b)
		for _, v := range b {
			if v != 0 {
				return
			}
		}
	}
}

// Attr is one key/value annotation on a span. Values are what the
// recorder was handed — int64, string or bool — and marshal directly.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// Span is one timed operation inside a request. Times are monotonic
// offsets from the recorder's start, so spans order and nest correctly
// regardless of wall-clock adjustments.
type Span struct {
	Name string `json:"name"`
	// Parent is the index of the parent span in the bundle's Spans
	// slice; -1 marks the root.
	Parent int `json:"parent"`
	// Start and End are nanosecond offsets from the request start. An
	// End of zero on a non-root span means the span was still open when
	// the recorder finished; Finish closes such spans at the root's end.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	Attrs []Attr        `json:"attrs,omitempty"`
}

// Duration is the span's recorded extent.
func (s *Span) Duration() time.Duration { return s.End - s.Start }

// SpanRef names one span inside a Recorder. The zero ref is the root
// span, which is also what every method of a nil Recorder returns — so
// instrumented code can pass refs around unconditionally.
type SpanRef int32

// Root is the request-level span every recorder starts with.
const Root SpanRef = 0

// Recorder collects the span tree of one request. A Recorder is created
// per request (NewRecorder), carried through the work by context.Context
// (With/From), and turned into an immutable Bundle at the end (Finish).
// All methods are safe on a nil receiver and for concurrent use.
type Recorder struct {
	tp    Traceparent // incoming (or minted) trace identity
	self  SpanID      // the span id this service propagates outward
	wall  time.Time   // wall-clock start, for the bundle header
	start time.Time   // monotonic anchor
	// clock overrides time.Since(start) in tests that need
	// deterministic span times; nil means the real clock.
	clock func() time.Duration

	mu    sync.Mutex
	spans []Span
}

// NewRecorder opens a recorder whose root span is named name. A zero
// tp (no or malformed traceparent header) mints a fresh root trace;
// otherwise the recorder joins the caller's trace as a child of
// tp.Parent.
func NewRecorder(name string, tp Traceparent) *Recorder {
	if tp.Trace.IsZero() {
		tp = NewTraceparent()
	}
	r := &Recorder{tp: tp, wall: time.Now()}
	r.start = r.wall
	randomID(r.self[:])
	r.spans = make([]Span, 1, 16)
	r.spans[0] = Span{Name: name, Parent: -1}
	return r
}

// now returns the monotonic offset since the recorder started.
func (r *Recorder) now() time.Duration {
	if r.clock != nil {
		return r.clock()
	}
	return time.Since(r.start)
}

// TraceID returns the hex trace id, or "" on a nil recorder.
func (r *Recorder) TraceID() string {
	if r == nil {
		return ""
	}
	return r.tp.Trace.String()
}

// Traceparent returns the outgoing header value: the recorder's trace
// id with this service's own span id as the parent field. Empty on a
// nil recorder.
func (r *Recorder) Traceparent() string {
	if r == nil {
		return ""
	}
	return Traceparent{Trace: r.tp.Trace, Parent: r.self, Flags: r.tp.Flags | 0x01}.String()
}

// Start opens a child span under parent (Root for request-level
// phases) and returns its ref. On a nil recorder it returns Root and
// records nothing.
func (r *Recorder) Start(parent SpanRef, name string) SpanRef {
	if r == nil {
		return Root
	}
	at := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	p := int(parent)
	if p < 0 || p >= len(r.spans) {
		p = 0
	}
	r.spans = append(r.spans, Span{Name: name, Parent: p, Start: at})
	return SpanRef(len(r.spans) - 1)
}

// End closes the span. Ending Root is a no-op — the root closes in
// Finish — as is ending an already-closed span.
func (r *Recorder) End(ref SpanRef) {
	if r == nil || ref <= Root {
		return
	}
	at := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if i := int(ref); i < len(r.spans) && r.spans[i].End == 0 {
		r.spans[i].End = at
	}
}

// annotate attaches a key/value attribute to the span (Root for
// request-level attributes). The typed methods below are the only
// callers, so a value is always an int64, string or bool; they check
// for a nil recorder before value reaches this any parameter, because
// boxing it at the call site would allocate even when nobody records.
func (r *Recorder) annotate(ref SpanRef, key string, value any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i := int(ref); i >= 0 && i < len(r.spans) {
		r.spans[i].Attrs = append(r.spans[i].Attrs, Attr{Key: key, Value: value})
	}
}

// AnnotateInt attaches an int64 attribute to the span (Root for
// request-level attributes). On a nil recorder the value never reaches
// an interface, so the caller allocates nothing.
func (r *Recorder) AnnotateInt(ref SpanRef, key string, value int64) {
	if r == nil {
		return
	}
	r.annotate(ref, key, value)
}

// AnnotateStr attaches a string attribute to the span.
func (r *Recorder) AnnotateStr(ref SpanRef, key, value string) {
	if r == nil {
		return
	}
	r.annotate(ref, key, value)
}

// AnnotateBool attaches a bool attribute to the span.
func (r *Recorder) AnnotateBool(ref SpanRef, key string, value bool) {
	if r == nil {
		return
	}
	r.annotate(ref, key, value)
}

// Finish closes the root (and any spans left open, at the root's end)
// and returns the immutable bundle. The recorder must not be used
// afterwards. A nil recorder returns nil.
func (r *Recorder) Finish() *Bundle {
	if r == nil {
		return nil
	}
	end := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	spans := make([]Span, len(r.spans))
	copy(spans, r.spans)
	spans[0].End = end
	for i := 1; i < len(spans); i++ {
		if spans[i].End == 0 {
			spans[i].End = end
		}
	}
	return &Bundle{
		TraceID: r.tp.Trace.String(),
		SpanID:  r.self.String(),
		Flags:   r.tp.Flags | 0x01,
		Start:   r.wall.UTC(),
		Spans:   spans,
	}
}

// Bundle is the finished, immutable record of one request: the span
// timeline the flight recorder stores and the Chrome exporter renders.
type Bundle struct {
	TraceID string    `json:"trace_id"`
	SpanID  string    `json:"span_id"`
	Flags   byte      `json:"flags"`
	Start   time.Time `json:"start"`
	Spans   []Span    `json:"spans"`
}

// IntAttr returns the first int64 attribute key on a span named span.
func (b *Bundle) IntAttr(span, key string) (int64, bool) {
	v, ok := b.attr(span, key)
	if !ok {
		return 0, false
	}
	i, ok := v.(int64)
	return i, ok
}

// StrAttr returns the first string attribute key on a span named span.
func (b *Bundle) StrAttr(span, key string) (string, bool) {
	v, ok := b.attr(span, key)
	if !ok {
		return "", false
	}
	s, ok := v.(string)
	return s, ok
}

func (b *Bundle) attr(span, key string) (any, bool) {
	if b == nil {
		return nil, false
	}
	for i := range b.Spans {
		if b.Spans[i].Name != span {
			continue
		}
		for _, a := range b.Spans[i].Attrs {
			if a.Key == key {
				return a.Value, true
			}
		}
	}
	return nil, false
}

// ctxKey is the private context key for the request recorder.
type ctxKey struct{}

// With returns a context carrying the recorder. Attaching nil returns
// ctx unchanged, preserving the nil-is-free fast path downstream.
func With(ctx context.Context, r *Recorder) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, r)
}

// From returns the context's recorder, or nil — and every method on a
// nil recorder is a no-op, so callers never branch.
func From(ctx context.Context) *Recorder {
	r, _ := ctx.Value(ctxKey{}).(*Recorder)
	return r
}
