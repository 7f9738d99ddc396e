// Time-skipping support for the event-driven engine: a conservative
// bound on how long a core is provably quiescent (no memory-system
// interaction, no completion, no retirement milestone), and an exact
// fast-forward that replays a bounded span in closed form where the
// core is in its non-memory steady state.
//
// The contract both functions share: for any k within SkipBound(), the
// state after FastForward(now, k) is byte-identical to calling Cycle k
// times from now — the parity tests in internal/sim pin this across
// every backend. The bound is conservative (it may return 0 where a
// sharper analysis could skip), never optimistic.

package cpu

import (
	"math"

	"repro/internal/core"
)

// SkipBound returns the number of upcoming CPU cycles for which Cycle is
// guaranteed not to interact with the memory system (no enqueue, no
// FetchStall), not to consume a trace record, and not to retire the
// final instruction. math.MaxInt64 means the core is fully stalled or
// finished: every Cycle is a pure no-op until an external Complete call,
// so the caller's span is bounded elsewhere (the pending-completion
// heap). Zero means the next cycle must be stepped normally.
//
//mcrlint:hotpath event-engine skip bound (per active step)
func (c *Core) SkipBound() int64 {
	if c.Done() {
		return math.MaxInt64
	}
	if len(c.ReadsInFlight) > 0 {
		// A read is outstanding. If it blocks the ROB head and fetch can
		// make no progress either (ROB full, or the trace is spent with
		// nothing buffered), every cycle until its completion is a pure
		// no-op. Any other shape (head retirable, fetch refilling) must
		// step.
		if c.headWaiting() && (c.Occupancy >= c.cfg.ROBSize || (!c.HasPending && c.gen.Exhausted())) {
			return math.MaxInt64
		}
		return 0
	}
	// No reads in flight: the core is crunching buffered non-memory work.
	// Fetch is quiescent while the pending record's gap outlasts the
	// fetch width; with the trace exhausted and nothing pending it is
	// quiescent forever.
	var fetchBound int64
	switch {
	case c.HasPending:
		// Consuming at most FetchWidth gap instructions per cycle keeps
		// TailGap > 0 (so the memory op cannot dispatch) for this many
		// cycles.
		fetchBound = int64(c.TailGap-1) / int64(c.cfg.FetchWidth)
	case c.gen.Exhausted():
		fetchBound = math.MaxInt64
	default:
		return 0 // next fetch consumes a trace record
	}
	// Retiring at most RetireWidth per cycle keeps the core short of its
	// final instruction (and of the DoneAt stamp) for this many cycles.
	retireBound := (c.totalInsts - 1 - c.State.Retired) / int64(c.cfg.RetireWidth)
	if retireBound < fetchBound {
		return retireBound
	}
	return fetchBound
}

// FastForward advances the core by k CPU cycles starting at CPU cycle
// now, exactly as k Cycle calls would. It is only valid for k within
// SkipBound() — the caller (the sim engine) guarantees that, so no
// memory dispatch can occur inside the span. The dominant steady state
// (one merged non-memory ROB entry, full occupancy, fetch replacing
// exactly what retire drains) is advanced arithmetically; everything
// else falls back to stepping the real retire/fetch pair.
//
//mcrlint:hotpath event-engine span replay (per skip)
func (c *Core) FastForward(now, k int64) {
	if c.stalled || c.Done() {
		return // k no-op cycles
	}
	rw := int64(c.cfg.RetireWidth)
	steady := c.cfg.FetchWidth >= c.cfg.RetireWidth && c.cfg.ROBSize > c.cfg.RetireWidth
	for k > 0 {
		if steady && c.Sz == 1 && c.Occupancy == c.cfg.ROBSize &&
			c.ROB[c.Head].ReadID < 0 && c.HasPending &&
			now >= int64(c.cfg.PipelineDepth) {
			// Per cycle: retire drains RetireWidth from the single merged
			// entry, fetch refills exactly RetireWidth from the gap — the
			// ROB is invariant, only Retired/TailGap move. Hold the state
			// while the gap stays above FetchWidth and the final
			// instruction stays out of reach.
			n := k
			if m := (int64(c.TailGap)-int64(c.cfg.FetchWidth)-1)/rw + 1; m < n {
				n = m
			}
			if m := (c.totalInsts - 1 - c.State.Retired) / rw; m < n {
				n = m
			}
			if n > 0 {
				c.State.Retired += n * rw
				c.TailGap -= int(n * rw)
				now += n
				k -= n
				continue
			}
		}
		c.retire(now)
		c.fetch(now / int64(core.CPUCyclesPerMemCycle))
		now++
		k--
	}
}
