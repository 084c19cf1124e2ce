package metrics

// Registry.Each is the snapshot/visitor API over the registry's current
// state: the tsdb sampler (internal/tsdb) reads the same sorted
// family/series walk the Prometheus encoder serializes, so a scrape and
// a sample pass agree on series identity and order.

// Sample is the point-in-time state of one series as delivered to Each.
// The struct and its slices are reused across visits — a visitor that
// retains anything must copy it.
type Sample struct {
	// Name and Help identify the family; Labels is the pre-rendered,
	// escaped `a="b",c="d"` label body ("" for the unlabelled series) —
	// the same key the Prometheus encoder emits inside the braces.
	Name   string
	Help   string
	Kind   Kind
	Labels string

	// Value is the cumulative count (counters) or current value (gauges).
	Value float64

	// Histogram state: Bounds are the finite bucket upper bounds
	// (ascending; an implicit +Inf bucket follows), BucketCounts the
	// per-bucket (non-cumulative) observation counts with the +Inf
	// overflow at index len(Bounds), Count/Sum the totals. Bounds aliases
	// the registry's own slice and must not be mutated.
	Bounds       []float64
	BucketCounts []uint64
	Count        uint64
	Sum          float64
}

// Each visits every registered series in deterministic order (family
// name, then label key) with its current state. Values are read
// atomically per series; the walk as a whole is not a consistent cut
// across series, which is the same property a Prometheus scrape has.
// A nil registry visits nothing.
func (r *Registry) Each(visit func(*Sample)) {
	if r == nil {
		return
	}
	var s Sample
	var counts []uint64
	for _, fv := range r.snapshot() {
		f := fv.f
		for _, se := range fv.series {
			s = Sample{Name: f.name, Help: f.help, Kind: f.kind, Labels: se.key}
			switch f.kind {
			case KindCounter:
				s.Value = float64(se.c.Value())
			case KindGauge:
				s.Value = float64(se.g.Value())
			case KindHistogram:
				h := se.h
				if cap(counts) < len(h.counts) {
					counts = make([]uint64, len(h.counts))
				}
				counts = counts[:len(h.counts)]
				for i := range h.counts {
					counts[i] = h.counts[i].Load()
				}
				s.Bounds = h.bounds
				s.BucketCounts = counts
				s.Count = h.count.Load()
				s.Sum = h.Sum()
			}
			visit(&s)
		}
	}
}
