// Checkpoint support for the controller. Queues, write-drain flags,
// refresh obligations, the completion list, the MRS-drain target and the
// cached tREFI live in one State value the scheduler reads and writes
// directly, so a checkpoint is a copy of it.

package controller

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/mcr"
)

// State is the controller's mutable state: the storage the scheduler
// works on, and the value a checkpoint carries. The schedulePass
// bank-dedup scratch (touched/touchedGen) is per-pass and intentionally
// absent: a restored controller starts it from zero, which is
// indistinguishable to the scheduler.
type State struct {
	ReadQ  [][]Request // per channel
	WriteQ [][]Request
	Drain  []bool // per channel write-drain mode

	Refresh []RankRefresh // per (channel, rank)

	NextID      int64
	Completions []Completion
	Stats       Stats
	TREFI       int64

	// PendingMode, when non-nil, is a requested MRS mode switch the
	// controller is draining toward (see modechange.go).
	PendingMode *mcr.Mode
}

// ExportState returns a copy of the controller's state, sharing no
// mutable storage with the live controller, for a checkpoint.
func (c *Controller) ExportState() State {
	st := c.st
	st.ReadQ, st.WriteQ = cloneQueues(st.ReadQ), cloneQueues(st.WriteQ)
	st.Drain = slices.Clone(st.Drain)
	st.Refresh = slices.Clone(st.Refresh)
	st.Completions = slices.Clone(st.Completions)
	return st
}

// cloneQueues copies per-channel request queues.
func cloneQueues(q [][]Request) [][]Request {
	out := make([][]Request, len(q))
	for ch := range q {
		out[ch] = slices.Clone(q[ch])
	}
	return out
}

// ImportState reinstates a checkpointed state on a freshly built
// controller of the same configuration, which takes ownership of st's
// storage. Each queue must fit its configured capacity and hold only
// its own kind of request, and every queued request must address the
// geometry and sit in its own channel's queue: the scheduler's per-pass
// scratch and its per-bank column-gate memo rely on all three. The core
// ids the requests and completions carry, and the refresh deadlines
// against the resume cycle, are the caller's to check.
func (c *Controller) ImportState(st State) error {
	switch {
	case len(st.ReadQ) != len(c.st.ReadQ) || len(st.WriteQ) != len(c.st.WriteQ) || len(st.Drain) != len(c.st.Drain):
		return fmt.Errorf("controller: checkpoint channel count does not match the configuration")
	case len(st.Refresh) != len(c.st.Refresh):
		return fmt.Errorf("controller: checkpoint has %d rank-refresh entries, controller has %d", len(st.Refresh), len(c.st.Refresh))
	case st.TREFI <= 0:
		return fmt.Errorf("controller: checkpointed tREFI must be positive, got %d", st.TREFI)
	}
	g := c.geom
	for _, qs := range []struct {
		queues [][]Request
		kind   core.OpKind
		limit  int
	}{{st.ReadQ, core.OpRead, c.cfg.ReadQueueCap}, {st.WriteQ, core.OpWrite, c.cfg.WriteQueueCap}} {
		for ch, q := range qs.queues {
			if len(q) > qs.limit {
				return fmt.Errorf("controller: checkpointed %s queue on channel %d holds %d requests, capacity is %d", qs.kind, ch, len(q), qs.limit)
			}
			for _, r := range q {
				if r.Kind != qs.kind {
					return fmt.Errorf("controller: checkpointed request %d of kind %d sits in the %s queue of channel %d", r.ID, r.Kind, qs.kind, ch)
				}
				a := r.Addr
				if a.Channel != ch || a.Rank < 0 || a.Rank >= g.Ranks || a.Bank < 0 || a.Bank >= g.Banks || a.Row < 0 || a.Row >= g.Rows {
					return fmt.Errorf("controller: checkpointed request %d on channel %d has address %v outside the geometry", r.ID, ch, a)
				}
			}
		}
	}
	c.st = st
	return nil
}
