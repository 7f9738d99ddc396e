// Checkpoint support for the mechanism seam. Every backend keeps its
// mutable policy state in base.st, so one Export/Import pair serves them
// all; only MCR adds its mode register. Derived structures (timing
// classes, layout tables, refresh schedules) are rebuilt from the
// configuration.

package mech

import (
	"fmt"
	"maps"

	"repro/internal/mcr"
)

// State is the mutable policy state of a mechanism backend: the storage
// the backend works on, and the value a checkpoint carries. Fields a
// backend does not model stay zero or empty.
type State struct {
	// Quarantined marks rows demoted to conventional 1x timing and full
	// restore; nil until the first Quarantine call. Survives SetMode.
	Quarantined map[int]bool
	Stats       Stats

	// Mode/ModeGen are the MCR mode register, filled on export only
	// (ModeGen 0 = never programmed, as for combined-layout devices
	// before any MRS).
	Mode    mcr.Mode
	ModeGen int

	// Counter is NUAT's global REF progress (total REFs ever issued).
	Counter int

	// The CROW and CLR per-row policy. Hot counts activations of rows not
	// yet in the fast state; Fast marks the fast rows (CROW: rows with a
	// live copy, CLR: even-aligned coupled pair bases); Banned the rows
	// (CROW) or pair bases (CLR) quarantine demoted, which never re-enter
	// it; Budget the consumption per sub-array index (CROW spare rows,
	// CLR pairs). Rows are per-bank addresses, so hotness aggregates
	// across banks — consistent with the row-indexed band classes
	// everywhere else in the model.
	Hot    map[int]int
	Fast   map[int]bool
	Banned map[int]bool
	Budget map[int]int
}

// makeMaps allocates whichever per-row policy maps are nil: the
// activation path writes them, and a decoded snapshot may lack them.
func (s *State) makeMaps() {
	s.Hot, s.Budget = orMake(s.Hot), orMake(s.Budget)
	s.Fast, s.Banned = orMake(s.Fast), orMake(s.Banned)
}

// orMake returns m, or a new empty map when m is nil.
func orMake[K comparable, V any](m map[K]V) map[K]V {
	if m == nil {
		return make(map[K]V)
	}
	return m
}

// ExportState implements Mechanism: a copy of the policy state that
// shares no storage with the live backend.
func (b *base) ExportState() State {
	st := b.st
	st.Quarantined = maps.Clone(st.Quarantined)
	st.Hot, st.Fast = maps.Clone(st.Hot), maps.Clone(st.Fast)
	st.Banned, st.Budget = maps.Clone(st.Banned), maps.Clone(st.Budget)
	return st
}

// ImportState implements Mechanism; the backend takes ownership of st's
// storage. The per-row maps are made whatever the backend: only CROW and
// CLR write them, and the others never read them.
func (b *base) ImportState(st State) error {
	st.makeMaps()
	b.st = st
	return nil
}

// ExportState implements Mechanism: the MCR backend adds its mode
// register (the rest of its machinery is derived from mode + config).
func (m *MCR) ExportState() State {
	st := m.base.ExportState()
	st.Mode, st.ModeGen = m.modeReg.Mode(), m.modeReg.Generation()
	return st
}

// ImportState implements Mechanism: when the checkpointed register
// generation differs from the freshly built one, the run performed MRS
// mode switches — replay the final one (rebuilding generator, layout and
// timing classes exactly as the live path does) and pin the register to
// the exact checkpointed generation.
func (m *MCR) ImportState(st State) error {
	if err := m.base.ImportState(st); err != nil {
		return err
	}
	if st.ModeGen == m.modeReg.Generation() {
		return nil
	}
	if err := m.SetMode(st.Mode, 0); err != nil {
		return fmt.Errorf("mech: mcr: replaying checkpointed mode: %w", err)
	}
	return m.modeReg.Restore(st.Mode, st.ModeGen)
}
