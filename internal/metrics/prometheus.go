package metrics

// Prometheus text exposition format v0.0.4, hand-rolled: the registry is
// dependency-free by design, and the format is small — HELP/TYPE
// comments, one `name{labels} value` line per series, and the cumulative
// bucket/sum/count triplet for histograms. Families and series are
// emitted in sorted order so the output is byte-deterministic for a
// given registry state (the golden test relies on this).

import (
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus encodes the registry's current state in Prometheus
// text format v0.0.4. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var buf []byte
	for _, fv := range r.snapshot() {
		buf = fv.f.append(buf, fv.series)
	}
	_, err := w.Write(buf)
	return err
}

// famView is one family plus its series, both in deterministic order.
type famView struct {
	f      *family
	series []*series
}

// snapshot captures the registry's family and series sets — sorted by
// name, then label key — under the registry lock, so WritePrometheus
// emits them in a deterministic order. The pointers stay live (series
// hold atomics); only the set membership is snapshotted.
func (r *Registry) snapshot() []famView {
	r.mu.Lock()
	fams := make([]famView, 0, len(r.families))
	for _, f := range r.families {
		ss := make([]*series, 0, len(f.series))
		for _, s := range f.series {
			ss = append(ss, s)
		}
		sort.Slice(ss, func(i, j int) bool { return ss[i].key < ss[j].key })
		fams = append(fams, famView{f: f, series: ss})
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].f.name < fams[j].f.name })
	return fams
}

func (f *family) append(buf []byte, series []*series) []byte {
	buf = append(buf, "# HELP "...)
	buf = append(buf, f.name...)
	buf = append(buf, ' ')
	buf = append(buf, escapeHelp(f.help)...)
	buf = append(buf, "\n# TYPE "...)
	buf = append(buf, f.name...)
	buf = append(buf, ' ')
	buf = append(buf, f.kind.String()...)
	buf = append(buf, '\n')

	for _, s := range series {
		switch f.kind {
		case KindCounter:
			buf = appendSample(buf, f.name, "", s.key, "", float64(s.c.Value()), true)
		case KindGauge:
			buf = appendSample(buf, f.name, "", s.key, "", float64(s.g.Value()), true)
		case KindHistogram:
			buf = s.h.appendText(buf, f.name, s.key)
		}
	}
	return buf
}

// appendText emits the cumulative _bucket series plus _sum and _count.
func (h *Histogram) appendText(buf []byte, name, key string) []byte {
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		buf = appendSample(buf, name, "_bucket", key, formatLe(b), float64(cum), true)
	}
	cum += h.counts[len(h.bounds)].Load()
	buf = appendSample(buf, name, "_bucket", key, "+Inf", float64(cum), true)
	buf = appendSample(buf, name, "_sum", key, "", h.Sum(), false)
	buf = appendSample(buf, name, "_count", key, "", float64(h.count.Load()), true)
	return buf
}

// appendSample writes one exposition line. le, when non-empty, is merged
// into the label set as the bucket bound. integer selects exact integer
// rendering for counts.
func appendSample(buf []byte, name, suffix, key, le string, v float64, integer bool) []byte {
	buf = append(buf, name...)
	buf = append(buf, suffix...)
	switch {
	case key == "" && le == "":
	case le == "":
		buf = append(buf, '{')
		buf = append(buf, key...)
		buf = append(buf, '}')
	default:
		buf = append(buf, '{')
		if key != "" {
			buf = append(buf, key...)
			buf = append(buf, ',')
		}
		buf = append(buf, `le="`...)
		buf = append(buf, le...)
		buf = append(buf, `"`...)
		buf = append(buf, '}')
	}
	buf = append(buf, ' ')
	if integer && v == math.Trunc(v) && math.Abs(v) < 1e15 {
		buf = strconv.AppendInt(buf, int64(v), 10)
	} else {
		buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
	}
	return append(buf, '\n')
}

// formatLe renders a bucket bound the way Prometheus clients do.
func formatLe(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// labelKey pre-renders a label set as its escaped `a="b",c="d"` body,
// sorted by label name so equivalent sets collide.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var sb strings.Builder
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Name)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(l.Value))
		sb.WriteByte('"')
	}
	return sb.String()
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var sb strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// escapeHelp escapes a HELP string: backslash and newline only.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	var sb strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}
