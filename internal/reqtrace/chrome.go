package reqtrace

import (
	"fmt"
	"io"

	"cambricon/internal/trace"
)

// WriteChrome renders the bundle's span tree as a Chrome Trace Event
// JSON document through trace.ChromeDoc, the writer camsim's pipeline
// timeline uses too, so ui.perfetto.dev and chrome://tracing open
// both. Wall time maps 1:1 onto trace time (1 trace microsecond = 1
// microsecond of request wall time; sub-microsecond span edges keep
// three decimals). All spans share one "request" track and nest by
// containment; each event's args carry the span's parent index and
// attributes.
func (b *Bundle) WriteChrome(w io.Writer) error {
	doc := trace.NewChromeDoc(w)
	doc.Open(`"tool":"cambricon camserve","trace_id":%q,"span_id":%q`, b.TraceID, b.SpanID)
	doc.Event(`{"ph":"M","pid":0,"tid":0,"name":"process_name","args":{"name":"camserve"}}`)
	doc.Event(`{"ph":"M","pid":0,"tid":1,"name":"thread_name","args":{"name":"request"}}`)
	for i := range b.Spans {
		sp := &b.Spans[i]
		doc.Event(`{"ph":"X","pid":0,"tid":1,"ts":%s,"dur":%s,"name":%q,"args":{"parent":%d`,
			us(int64(sp.Start)), us(int64(sp.Duration())), sp.Name, sp.Parent)
		for _, a := range sp.Attrs {
			switch v := a.Value.(type) {
			case string:
				doc.Printf(`,%q:%q`, a.Key, v)
			case bool:
				doc.Printf(`,%q:%t`, a.Key, v)
			case int64:
				doc.Printf(`,%q:%d`, a.Key, v)
			}
		}
		doc.Printf("}}")
	}
	return doc.Close()
}

// us renders a nanosecond count as decimal microseconds with exactly
// the precision the value needs (trailing-zero-free, so golden files
// stay stable and minimal).
func us(ns int64) string {
	neg := ""
	if ns < 0 {
		neg, ns = "-", -ns
	}
	whole, frac := ns/1000, ns%1000
	if frac == 0 {
		return fmt.Sprintf("%s%d", neg, whole)
	}
	s := fmt.Sprintf("%s%d.%03d", neg, whole, frac)
	for s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	return s
}
