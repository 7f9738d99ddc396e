// Checkpoint support for the core model. The ROB ring (raw, so ring
// arithmetic resumes bit-exactly), the pending trace record, the
// in-flight read map and the metric counters live in the State the core
// embeds; a checkpoint is a copy of it plus the trace generator's replay
// position.

package cpu

import (
	"fmt"
	"maps"
	"slices"
)

// State is one core's mutable state: the storage Cycle works on, and
// the value a checkpoint carries.
type State struct {
	ROB       []ROBEntry // ring buffer
	Head, Sz  int        // Sz = occupied entries
	Occupancy int        // instructions currently in the ROB

	Pending    Record // the stalled record waiting for queue space
	HasPending bool
	TailGap    int // non-memory instructions still to fetch before Pending

	Retired       int64
	ReadsInFlight map[int64]int // readID -> ROB index

	// Metrics.
	ReadsIssued  int64
	WritesIssued int64
	FetchStalls  int64
	DoneAt       int64

	// GenCalls is filled on export only: the trace generator's
	// successful-Next count. The generator itself is rebuilt from its
	// constructor arguments and replayed that far (see trace.Replay).
	GenCalls int64
}

// ExportState returns a copy of the core's state, sharing no storage
// with the live core, for a checkpoint.
func (c *Core) ExportState() State {
	st := c.State
	st.ROB = slices.Clone(st.ROB)
	st.ReadsInFlight = maps.Clone(st.ReadsInFlight)
	st.GenCalls = c.gen.Calls()
	return st
}

// ImportState reinstates a checkpointed state on a freshly built core of
// the same configuration, which takes ownership of st's storage,
// replaying the trace generator to its checkpointed position.
func (c *Core) ImportState(st State) error {
	n := len(c.ROB)
	switch {
	case len(st.ROB) != n:
		return fmt.Errorf("cpu: core %d checkpoint has %d ROB entries, config has %d", c.id, len(st.ROB), n)
	case st.Head < 0 || st.Head >= n || st.Sz < 0 || st.Sz > n:
		return fmt.Errorf("cpu: core %d checkpoint ROB head %d / size %d out of range for %d entries", c.id, st.Head, st.Sz, n)
	}
	for _, idx := range st.ReadsInFlight {
		if idx < 0 || idx >= n {
			return fmt.Errorf("cpu: core %d checkpoint has an in-flight read outside the %d-entry ROB", c.id, n)
		}
	}
	if err := c.gen.Replay(st.GenCalls); err != nil {
		return fmt.Errorf("cpu: core %d: %w", c.id, err)
	}
	if st.ReadsInFlight == nil {
		st.ReadsInFlight = make(map[int64]int)
	}
	c.State = st
	return nil
}
