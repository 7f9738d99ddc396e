// Checkpoint support for the device model. The JEDEC state machines
// (banks, ranks, buses) and the event counters live in one State value
// that the command path reads and writes directly, so a checkpoint is a
// copy of it plus the mechanism backend's policy state.

package dram

import (
	"fmt"
	"slices"

	"repro/internal/mech"
)

// State is the device's mutable state: the storage the command path
// works on, and the value a checkpoint carries.
type State struct {
	Banks []Bank // [channel][rank][bank] flattened
	Ranks []Rank // [channel][rank] flattened

	// Channel-level constraint state.
	BusBusyUntil []int64 // data bus per channel
	BusOwner     []int   // rank that last used the bus, for tRTRS
	NextCol      []int64 // tCCD gate per channel

	Stats Stats
	// PerBankActs counts activates per flattened bank id, for balance
	// diagnostics.
	PerBankActs []int64

	// Mech is filled on export only: the backend owns its policy state.
	Mech mech.State
}

// ExportState returns a copy of the device's state, sharing no storage
// with the live device, for a checkpoint.
func (d *Device) ExportState() State {
	st := d.st
	st.Banks = slices.Clone(st.Banks)
	st.Ranks = slices.Clone(st.Ranks)
	st.BusBusyUntil = slices.Clone(st.BusBusyUntil)
	st.BusOwner = slices.Clone(st.BusOwner)
	st.NextCol = slices.Clone(st.NextCol)
	st.PerBankActs = slices.Clone(st.PerBankActs)
	st.Mech = d.mech.ExportState()
	return st
}

// ImportState reinstates a checkpointed state on a freshly built device
// of the same configuration, delegating the policy state to the mechanism
// backend and re-reading its (possibly mode-updated) config and timings.
// The device takes ownership of st's storage.
func (d *Device) ImportState(st State) error {
	switch {
	case len(st.Banks) != len(d.st.Banks):
		return fmt.Errorf("dram: checkpoint has %d banks, device has %d", len(st.Banks), len(d.st.Banks))
	case len(st.Ranks) != len(d.st.Ranks):
		return fmt.Errorf("dram: checkpoint has %d ranks, device has %d", len(st.Ranks), len(d.st.Ranks))
	case len(st.BusBusyUntil) != len(d.st.BusBusyUntil) || len(st.BusOwner) != len(d.st.BusOwner) || len(st.NextCol) != len(d.st.NextCol):
		return fmt.Errorf("dram: checkpoint channel-state widths do not match the device geometry")
	case len(st.PerBankActs) != len(d.st.PerBankActs):
		return fmt.Errorf("dram: checkpoint has %d per-bank counters, device has %d", len(st.PerBankActs), len(d.st.PerBankActs))
	}
	for _, r := range st.Ranks {
		if r.ActWindowAt < 0 || r.ActWindowAt >= len(r.ActWindow) {
			return fmt.Errorf("dram: checkpoint tFAW window cursor %d is out of range", r.ActWindowAt)
		}
	}
	if err := d.mech.ImportState(st.Mech); err != nil {
		return err
	}
	st.Mech = mech.State{}
	d.st = st
	// A replayed MRS rebuilt the backend's config and timing classes; the
	// device caches both, so refresh the caches.
	d.cfg = d.mech.Config()
	d.tim = d.mech.Timings()
	return nil
}
