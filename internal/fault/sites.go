package fault

// Geometry bounds the fault-site coordinate space of one benchmark run:
// how many dynamic instructions the golden run commits and how large the
// faultable structures are. The campaign fills it from the golden run so
// generated sites always land inside live state.
type Geometry struct {
	// Instructions is the golden run's dynamic instruction count.
	Instructions int64 `json:"instructions"`
	// GPRs is the scalar register-file size.
	GPRs int `json:"gprs"`
	// VectorSpadWords and MatrixSpadWords are the scratchpad capacities
	// in 16-bit elements.
	VectorSpadWords int `json:"vector_spad_words"`
	MatrixSpadWords int `json:"matrix_spad_words"`
	// VectorLanes and MatrixLanes are the per-unit lane counts.
	VectorLanes int `json:"vector_lanes"`
	MatrixLanes int `json:"matrix_lanes"`
}

// rng is a splitmix64 stream: tiny, fast, and stable across platforms,
// which is what keeps campaign reports byte-identical for a given seed.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// intn returns a value in [0, n); n <= 0 yields 0.
func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// SitesOf derives n deterministic fault sites from seed, bounded by geo.
// Models rotate round-robin over models, or over the whole taxonomy when
// models is nil or empty, so every sweep covers the subset; coordinates
// are drawn from the seeded stream. The same (seed, n, geo, models)
// always yields the same slice.
func SitesOf(seed uint64, n int, geo Geometry, models []Model) []Fault {
	if n <= 0 {
		return nil
	}
	if len(models) == 0 {
		models = []Model{ModelSpadBit, ModelGPRBit, ModelFetchBit, ModelDMABit, ModelStuckLane}
	}
	r := &rng{s: seed}
	at := func() int64 {
		if geo.Instructions <= 0 {
			return 0
		}
		return int64(r.next() % uint64(geo.Instructions))
	}
	sites := make([]Fault, 0, n)
	for i := 0; i < n; i++ {
		f := Fault{Model: models[i%len(models)]}
		switch f.Model {
		case ModelSpadBit:
			f.At = at()
			f.Bit = uint8(r.intn(16))
			if r.next()&1 == 0 {
				f.Space = SpaceVector
				f.Word = r.intn(geo.VectorSpadWords)
			} else {
				f.Space = SpaceMatrix
				f.Word = r.intn(geo.MatrixSpadWords)
			}
		case ModelGPRBit:
			f.At = at()
			f.Bit = uint8(r.intn(32))
			f.Reg = uint8(r.intn(geo.GPRs))
		case ModelFetchBit:
			f.At = at()
			f.Bit = uint8(r.intn(64))
		case ModelDMABit:
			f.At = at()
			f.Bit = uint8(r.intn(8))
			f.Byte = r.intn(1 << 16)
		case ModelStuckLane:
			f.Bit = uint8(r.intn(16))
			f.Val = uint8(r.next() & 1)
			if r.next()&1 == 0 {
				f.Unit = UnitVector
				f.Lane = r.intn(geo.VectorLanes)
			} else {
				f.Unit = UnitMatrix
				f.Lane = r.intn(geo.MatrixLanes)
			}
		}
		sites = append(sites, f)
	}
	return sites
}

// BenchSeed derives the per-benchmark site seed from the campaign seed
// and the benchmark name (FNV-1a), so adding or reordering benchmarks
// never shifts another benchmark's fault sites.
func BenchSeed(campaignSeed uint64, name string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 0x100000001b3
	}
	return campaignSeed ^ h
}
