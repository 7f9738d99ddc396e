// The device model proper: banks, ranks and the shared data bus. Every
// per-row policy decision — timing classes, gang mapping, refresh
// planning, mode transitions, quarantine — is delegated to the single
// mech.Mechanism backend the configuration selected.

package dram

import (
	"repro/internal/core"
	"repro/internal/mcr"
	"repro/internal/mech"
	"repro/internal/obs"
	"repro/internal/timing"
)

// Bank holds the per-bank scheduling state: the open row and the earliest
// cycle each command class may next issue.
type Bank struct {
	OpenRow   int // -1 when precharged
	OpenMCR   bool
	NextAct   int64
	NextRead  int64
	NextWrite int64
	NextPre   int64
}

// Rank holds rank-level constraint state.
type Rank struct {
	ActWindow        [4]int64 // times of the last four ACTs, for tFAW
	ActWindowAt      int
	NextAct          int64 // tRRD gate
	NextReadOK       int64 // write-to-read turnaround (tWTR)
	RefreshBusyUntil int64
}

// Stats counts device-level events.
type Stats struct {
	Activates        int64
	Reads            int64
	Writes           int64
	Precharges       int64
	Refreshes        int64
	SkippedRefreshes int64
	MCRActivates     int64
	MCRRefreshes     int64
}

// Device is one DRAM memory system (all channels) running exactly one
// latency-mechanism backend.
type Device struct {
	cfg Config
	tim Timings
	// mech owns every scheme-specific policy; the device keeps only the
	// JEDEC state machines below.
	mech mech.Mechanism

	// st is every JEDEC state machine and counter the command path
	// mutates; a checkpoint carries it whole (see state.go).
	st   State
	hook Hook

	// obs/tr, when non-nil, receive per-bank command counts and
	// cycle-domain command events; both are nil-safe no-ops otherwise.
	obs *obs.Registry
	tr  *obs.Tracer
}

// New builds a device from the configuration, selecting the mechanism
// backend it asks for (MCR by default; exactly one of TL/NUAT/CROW/CLR
// otherwise — conflicting selections are rejected here).
func New(cfg Config) (*Device, error) {
	m, err := mech.New(cfg)
	if err != nil {
		return nil, err
	}
	g := cfg.Geom
	d := &Device{cfg: cfg, tim: m.Timings(), mech: m, st: State{
		Banks:        make([]Bank, g.Channels*g.Ranks*g.Banks),
		Ranks:        make([]Rank, g.Channels*g.Ranks),
		BusBusyUntil: make([]int64, g.Channels),
		BusOwner:     make([]int, g.Channels),
		NextCol:      make([]int64, g.Channels),
		PerBankActs:  make([]int64, g.Channels*g.Ranks*g.Banks),
	}}
	for i := range d.st.Banks {
		d.st.Banks[i].OpenRow = -1
	}
	for i := range d.st.Ranks {
		for j := range d.st.Ranks[i].ActWindow {
			d.st.Ranks[i].ActWindow[j] = -1 << 40 // far past: empty tFAW window
		}
	}
	for i := range d.st.BusOwner {
		d.st.BusOwner[i] = -1
	}
	return d, nil
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Timings returns the resolved per-class timing parameters.
func (d *Device) Timings() Timings { return d.tim }

// Mechanism exposes the active latency-mechanism backend.
func (d *Device) Mechanism() mech.Mechanism { return d.mech }

// MechanismName identifies the active backend ("mcr", "tldram", ...).
func (d *Device) MechanismName() string { return d.mech.Name() }

// MechStats returns the backend's policy counters (copies, conversions,
// fast activates, capacity traded).
func (d *Device) MechStats() mech.Stats { return d.mech.Stats() }

// mcrMech returns the MCR backend, or nil when another scheme is active.
func (d *Device) mcrMech() *mech.MCR {
	m, _ := d.mech.(*mech.MCR)
	return m
}

// Generator exposes the simple-mode MCR generator; nil for combined
// layouts and for non-MCR backends.
func (d *Device) Generator() *mcr.Generator {
	if m := d.mcrMech(); m != nil {
		return m.Generator()
	}
	return nil
}

// LayoutGenerator exposes the MCR row classifier; nil for non-MCR
// backends (use GangK/CloneRows/InMCR, which every backend answers).
func (d *Device) LayoutGenerator() *mcr.LayoutGenerator {
	if m := d.mcrMech(); m != nil {
		return m.LayoutGenerator()
	}
	return nil
}

// RefreshScheduler exposes the MCR refresh planner; nil for non-MCR
// backends.
func (d *Device) RefreshScheduler() *mcr.LayoutScheduler {
	if m := d.mcrMech(); m != nil {
		return m.RefreshScheduler()
	}
	return nil
}

// Stats returns a copy of the event counters.
func (d *Device) Stats() Stats { return d.st.Stats }

// SetObservability attaches a metrics registry and an event tracer to
// the command path (either may be nil — recording calls on nil
// receivers are near-free no-ops).
func (d *Device) SetObservability(reg *obs.Registry, tr *obs.Tracer) {
	d.obs, d.tr = reg, tr
}

// RefreshBusy reports whether a refresh is in flight on the rank at the
// given cycle; the controller's stall accounter uses it to classify
// blocked command slots as tRFC stalls.
func (d *Device) RefreshBusy(ch, rankID int, now int64) bool {
	return d.st.Ranks[ch*d.cfg.Geom.Ranks+rankID].RefreshBusyUntil > now
}

// bankAt and rankAt take the address fields, never a core.Address or
// the Geometry by value: every timing gate runs them once per probe.
func (d *Device) bankAt(ch, rank, bank int) *Bank {
	return &d.st.Banks[d.cfg.Geom.BankIndex(ch, rank, bank)]
}

func (d *Device) rankAt(ch, rank int) *Rank {
	return &d.st.Ranks[ch*d.cfg.Geom.Ranks+rank]
}

// RowParams returns the timing parameter set governing a row and whether
// the row lies in an MCR band (always false for the comparator schemes,
// whose fast classes are not clone-row bands).
func (d *Device) RowParams(row int) (*timing.Params, bool) {
	return d.mech.RowParams(row)
}

// IsNearSegment reports whether a row sits in the TL-DRAM-like near
// segment (false for every other backend).
func (d *Device) IsNearSegment(row int) bool {
	if t, ok := d.mech.(*mech.TL); ok {
		return t.IsNear(row)
	}
	return false
}

// OpenRow returns the open row of the bank holding addr, or -1.
func (d *Device) OpenRow(a core.Address) int { return d.bankAt(a.Channel, a.Rank, a.Bank).OpenRow }

// OpenRowAt is OpenRow for a flat bank index (core.Geometry.BankIndex).
func (d *Device) OpenRowAt(bid int) int { return d.st.Banks[bid].OpenRow }

// IsRowHit reports whether a request would hit the open row — treating
// rows that latch shared data (an MCR's clone rows, a CLR coupled pair)
// as the same logical row, since activating any of them latched the
// same data.
func (d *Device) IsRowHit(a core.Address) bool {
	return d.RowHit(d.bankAt(a.Channel, a.Rank, a.Bank).OpenRow, a.Row)
}

// RowHit reports whether a request for row hits a bank whose open row
// is open (-1 when precharged). It is the one definition of a row hit:
// the bank is open on the row itself, or on a row the backend gangs with
// it, and the backend is asked only when the bank is open on another
// row. With OpenRowAt it lets a per-cycle caller probe by flat index.
func (d *Device) RowHit(open, row int) bool {
	return open >= 0 && (open == row || d.mech.SameGang(open, row))
}

// InMCR reports whether the row lies in an MCR band.
func (d *Device) InMCR(row int) bool { return d.mech.InMCR(row) }

// GangK returns the number of wordlines that fire for the row (1 when
// un-ganged) — safe on every backend.
func (d *Device) GangK(row int) int { return d.mech.GangK(row) }

// CloneRows lists the wordlines that fire for a row (itself alone when
// un-ganged) — safe on every backend.
func (d *Device) CloneRows(row int) []int { return d.mech.CloneRows(row) }

// SupportsModeChange reports whether the active backend has an
// MRS-programmable mode register; the controller consults it before
// starting a drain.
func (d *Device) SupportsModeChange() bool { return d.mech.SupportsModeChange() }

// BankActivates returns a copy of the per-bank activate counters (indexed
// by the flattened BankID), for balance diagnostics.
func (d *Device) BankActivates() []int64 {
	return append([]int64(nil), d.st.PerBankActs...)
}

// RankBusy reports whether a rank is doing work at the given cycle: any
// bank open, or a refresh in flight. The power model uses it to classify
// background cycles.
func (d *Device) RankBusy(ch, rankID int, now int64) bool {
	if d.st.Ranks[ch*d.cfg.Geom.Ranks+rankID].RefreshBusyUntil > now {
		return true
	}
	base := (ch*d.cfg.Geom.Ranks + rankID) * d.cfg.Geom.Banks
	for b := 0; b < d.cfg.Geom.Banks; b++ {
		if d.st.Banks[base+b].OpenRow >= 0 {
			return true
		}
	}
	return false
}
