// Package fault is the fault-injection subsystem of the Cambricon-ACC
// simulator: deterministic, seeded fault models threaded through the
// execution core the same way internal/trace is.
//
// The contract with the simulator mirrors the tracer's: a Machine with a
// nil Injector makes no fault calls at all — the hot path stays
// allocation-free and produces bit-identical cycle counts — and an
// attached Injector perturbs only the architectural state it explicitly
// flips, never the timing model itself.
//
// Five fault models cover the structures of the Section IV prototype:
//
//	spad-bit     transient single-bit flip of a 16-bit scratchpad word
//	gpr-bit      transient single-bit flip of a 32-bit scalar register
//	fetch-bit    single-bit corruption of a 64-bit instruction encoding
//	             at fetch (an undecodable word is a detected fault)
//	dma-bit      single-bit corruption of an in-flight DMA transfer
//	stuck-lane   persistent stuck-at-0/1 fault in one vector or matrix
//	             MAC lane output bit
//
// Campaign sweeps seeded fault sites across the Table III benchmarks and
// classifies every run against its golden (fault-free) twin; Report is
// the machine-readable result (schema cambricon-fault/v1).
package fault

import "fmt"

// Space identifies a scratchpad memory.
type Space uint8

const (
	// SpaceVector is the 64KB vector scratchpad.
	SpaceVector Space = iota
	// SpaceMatrix is the 768KB matrix scratchpad.
	SpaceMatrix
)

func (s Space) String() string {
	if s == SpaceMatrix {
		return "matrix"
	}
	return "vector"
}

// MarshalText renders the space name into reports.
func (s Space) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a space name.
func (s *Space) UnmarshalText(b []byte) error {
	switch string(b) {
	case "vector":
		*s = SpaceVector
	case "matrix":
		*s = SpaceMatrix
	default:
		return fmt.Errorf("fault: unknown space %q", b)
	}
	return nil
}

// Unit identifies a functional unit with faultable lanes.
type Unit uint8

const (
	// UnitVector is the 32-lane vector functional unit.
	UnitVector Unit = iota
	// UnitMatrix is the matrix unit (32 blocks x 32 MACs).
	UnitMatrix
)

func (u Unit) String() string {
	if u == UnitMatrix {
		return "matrix"
	}
	return "vector"
}

// MarshalText renders the unit name into reports.
func (u Unit) MarshalText() ([]byte, error) { return []byte(u.String()), nil }

// UnmarshalText parses a unit name.
func (u *Unit) UnmarshalText(b []byte) error {
	switch string(b) {
	case "vector":
		*u = UnitVector
	case "matrix":
		*u = UnitMatrix
	default:
		return fmt.Errorf("fault: unknown unit %q", b)
	}
	return nil
}

// Model names one fault model of the campaign taxonomy.
type Model uint8

const (
	// ModelSpadBit flips one bit of a scratchpad word once.
	ModelSpadBit Model = iota
	// ModelGPRBit flips one bit of a scalar register once.
	ModelGPRBit
	// ModelFetchBit flips one bit of an instruction encoding at fetch.
	ModelFetchBit
	// ModelDMABit flips one bit of an in-flight DMA transfer.
	ModelDMABit
	// ModelStuckLane forces one output bit of one FU lane for the whole
	// run (a stuck-at manufacturing fault rather than a transient).
	ModelStuckLane

	// NumModels sizes per-model sweeps.
	NumModels = 5
)

var modelNames = [NumModels]string{
	"spad-bit", "gpr-bit", "fetch-bit", "dma-bit", "stuck-lane",
}

func (m Model) String() string {
	if int(m) < len(modelNames) {
		return modelNames[m]
	}
	return fmt.Sprintf("model(%d)", uint8(m))
}

// MarshalText renders the model name into reports.
func (m Model) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText parses a model name.
func (m *Model) UnmarshalText(b []byte) error {
	for i, name := range modelNames {
		if string(b) == name {
			*m = Model(i)
			return nil
		}
	}
	return fmt.Errorf("fault: unknown model %q", b)
}

// Fault is one concrete fault site: a model plus the coordinates the
// model needs. Unused coordinates stay zero and are omitted from reports.
type Fault struct {
	Model Model `json:"model"`
	// At is the dynamic instruction index a transient fault fires at
	// (ModelDMABit fires at the first DMA transfer at or after At;
	// ModelStuckLane is active for the whole run and ignores At).
	At int64 `json:"at"`
	// Bit selects the flipped (or stuck) bit: 0..15 for scratchpad words
	// and lane outputs, 0..31 for GPRs, 0..63 for instruction encodings,
	// 0..7 within the byte selected for DMA corruption.
	Bit uint8 `json:"bit"`

	// Space and Word locate a ModelSpadBit flip (Word is a 16-bit
	// element index).
	Space Space `json:"space,omitempty"`
	Word  int   `json:"word,omitempty"`

	// Reg names the register of a ModelGPRBit flip.
	Reg uint8 `json:"reg,omitempty"`

	// Byte locates a ModelDMABit flip within the transfer (reduced
	// modulo the transfer length).
	Byte int `json:"byte,omitempty"`

	// Unit and Lane locate a ModelStuckLane fault; Val is the stuck
	// value (0 or 1).
	Unit Unit  `json:"unit,omitempty"`
	Lane int   `json:"lane,omitempty"`
	Val  uint8 `json:"val,omitempty"`
}

// String renders a compact human-readable site description.
func (f Fault) String() string {
	switch f.Model {
	case ModelSpadBit:
		return fmt.Sprintf("spad-bit %s[%d] bit %d at #%d", f.Space, f.Word, f.Bit, f.At)
	case ModelGPRBit:
		return fmt.Sprintf("gpr-bit $%d bit %d at #%d", f.Reg, f.Bit, f.At)
	case ModelFetchBit:
		return fmt.Sprintf("fetch-bit bit %d at #%d", f.Bit, f.At)
	case ModelDMABit:
		return fmt.Sprintf("dma-bit byte %d bit %d at #%d", f.Byte, f.Bit, f.At)
	case ModelStuckLane:
		return fmt.Sprintf("stuck-lane %s lane %d bit %d = %d", f.Unit, f.Lane, f.Bit, f.Val)
	}
	return fmt.Sprintf("fault(%d)", uint8(f.Model))
}

// Stuck describes the active stuck-at lane fault reported to the
// simulator's functional units.
type Stuck struct {
	Lane int
	Bit  uint8
	Val  uint8
}

// State is the architectural state an injector may perturb, implemented
// by *sim.Machine. Methods are deliberately narrow: an injector can flip
// bits, not rewrite state wholesale.
type State interface {
	// FlipGPRBit flips bit (mod 32) of scalar register reg (mod 64).
	FlipGPRBit(reg, bit uint8)
	// FlipSpadBit flips bit (mod 16) of the 16-bit word at element
	// index word of the selected scratchpad; it reports whether the
	// word was in range.
	FlipSpadBit(space Space, word int, bit uint8) bool
}

// Injector receives the simulator's fault sites. A nil Injector on the
// Machine disables every call; implementations must be deterministic so
// campaign reports are reproducible. Injectors are reused across runs
// (BeginRun resets transient-fire state) but are not safe for use by
// concurrent machines.
type Injector interface {
	// BeginRun resets per-run state before a simulation starts.
	BeginRun()
	// BeforeExec fires before the dynamic instruction idx executes; the
	// injector may flip architectural bits through st.
	BeforeExec(idx int64, st State)
	// CorruptFetch may return a corrupted version of the 64-bit
	// instruction encoding fetched at idx (return w unchanged for no
	// fault). The simulator decodes the corrupted word; an undecodable
	// word surfaces as a detected fault.
	CorruptFetch(idx int64, w uint64) uint64
	// CorruptDMA may flip bits of an in-flight DMA transfer's payload at
	// dynamic instruction idx; it reports whether it did.
	CorruptDMA(idx int64, data []byte) bool
	// StuckLane reports the unit's persistent stuck-at lane fault, if
	// any. The simulator queries it on every operation the unit retires.
	StuckLane(unit Unit) (Stuck, bool)
}

// Single is an Injector realizing exactly one Fault. Transient models
// fire once per run; ModelStuckLane is active for the whole run.
type Single struct {
	f     Fault
	fired bool
}

// New builds the injector for one fault site.
func New(f Fault) *Single { return &Single{f: f} }

// Retarget re-aims the injector at a different fault site, re-arming it.
// Campaign workers use it to sweep many sites through one injector
// instead of allocating one per run.
func (s *Single) Retarget(f Fault) { s.f, s.fired = f, false }

// Fault returns the site the injector realizes.
func (s *Single) Fault() Fault { return s.f }

// BeginRun re-arms the transient fault.
func (s *Single) BeginRun() { s.fired = false }

// BeforeExec applies state-resident transients (GPR and scratchpad
// flips) when their dynamic instruction arrives.
func (s *Single) BeforeExec(idx int64, st State) {
	if s.fired || idx != s.f.At {
		return
	}
	switch s.f.Model {
	case ModelGPRBit:
		s.fired = true
		st.FlipGPRBit(s.f.Reg, s.f.Bit)
	case ModelSpadBit:
		s.fired = true
		st.FlipSpadBit(s.f.Space, s.f.Word, s.f.Bit)
	}
}

// CorruptFetch applies a fetch-encoding transient.
func (s *Single) CorruptFetch(idx int64, w uint64) uint64 {
	if s.f.Model != ModelFetchBit || s.fired || idx != s.f.At {
		return w
	}
	s.fired = true
	return w ^ 1<<(s.f.Bit%64)
}

// CorruptDMA applies a DMA payload transient to the first transfer at or
// after the fault's dynamic index.
func (s *Single) CorruptDMA(idx int64, data []byte) bool {
	if s.f.Model != ModelDMABit || s.fired || idx < s.f.At || len(data) == 0 {
		return false
	}
	s.fired = true
	data[s.f.Byte%len(data)] ^= 1 << (s.f.Bit % 8)
	return true
}

// StuckLane reports the persistent lane fault to the matching unit.
func (s *Single) StuckLane(unit Unit) (Stuck, bool) {
	if s.f.Model != ModelStuckLane || unit != s.f.Unit {
		return Stuck{}, false
	}
	return Stuck{Lane: s.f.Lane, Bit: s.f.Bit % 16, Val: s.f.Val}, true
}
