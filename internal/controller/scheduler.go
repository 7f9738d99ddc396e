// The per-cycle scheduling pass: refresh management, write-drain mode and
// FR-FCFS command selection. One command per channel per cycle.

package controller

import (
	"math"

	"repro/internal/core"
	"repro/internal/obs"
)

// Tick runs one memory cycle: it updates refresh obligations and issues at
// most one DRAM command per channel. Completed reads become Completions
// (fetch them with DrainCompletions). A tick that issues nothing records
// the quiet window NextEventAt reports (see nextevent.go).
//
//mcrlint:hotpath controller scheduling (per memory cycle)
func (c *Controller) Tick(now int64) {
	c.Settle()
	c.wake = now + 1
	if !c.tick(now) {
		c.wake = c.window(now)
	}
}

// tick runs the scheduling pass and reports whether it acted. A pending
// mode switch counts as acting: the drain leaves no quiet window.
func (c *Controller) tick(now int64) bool {
	if c.st.PendingMode != nil {
		// A mode switch is draining: no new work until the MRS issues.
		c.tickModeChange(now)
		return true
	}
	c.horizon = math.MaxInt64
	acted := false
	for ch := 0; ch < c.geom.Channels; ch++ {
		if c.tickChannel(ch, now) {
			acted = true
		}
	}
	return acted
}

// tickChannel schedules one channel for one cycle and reports whether a
// command issued (or a skipped REF retired debt).
func (c *Controller) tickChannel(ch int, now int64) bool {
	c.updateRefreshDebt(ch, now)
	c.st.Drain[ch] = drainNext(c.st.Drain[ch], len(c.st.ReadQ[ch]), len(c.st.WriteQ[ch]), c.cfg.HighWatermark, c.cfg.LowWatermark)

	// In priority order: mandatory refreshes (they preempt everything on
	// their rank); column accesses, activates and precharges for the
	// current flow; an opportunistic refresh when a rank has debt and
	// nothing else ran; close-page housekeeping.
	return c.serviceForcedRefresh(ch, now) ||
		c.scheduleRequests(ch, now) ||
		c.serviceOpportunisticRefresh(ch, now) ||
		c.scheduleHousekeeping(ch, now)
}

// updateRefreshDebt accrues one refresh obligation per elapsed tREFI.
func (c *Controller) updateRefreshDebt(ch int, now int64) {
	for r := 0; r < c.geom.Ranks; r++ {
		rr := &c.st.Refresh[ch*c.geom.Ranks+r]
		for now >= rr.NextDue {
			rr.Debt++
			rr.NextDue += c.st.TREFI
			c.obs.ObserveRefreshDebt(rr.Debt)
		}
	}
}

// issueRefresh pushes one rank toward a REF: precharges open banks, then
// issues the refresh once legal. Returns true if a command slot was used.
func (c *Controller) issueRefresh(ch, r int, now int64) bool {
	rr := &c.st.Refresh[ch*c.geom.Ranks+r]
	// Precharge any open bank of the rank first.
	base := c.geom.BankIndex(ch, r, 0)
	for b := 0; b < c.geom.Banks; b++ {
		if c.dev.OpenRowAt(base+b) >= 0 {
			a := core.Address{Channel: ch, Rank: r, Bank: b}
			if t, ok := c.dev.EarliestPrecharge(a, now); c.gateOpen(t, ok, now) {
				c.dev.Precharge(a, now)
				return true
			}
			return false // wait for tRAS etc.; slot not used
		}
	}
	if t, ok := c.dev.EarliestRefresh(ch, r, now); !c.gateOpen(t, ok, now) {
		return false
	}
	_, _ = c.dev.Refresh(ch, r, rr.Counter, now)
	rr.Counter = (rr.Counter + 1) % 8192
	rr.Debt--
	return true
}

// serviceForcedRefresh issues refreshes whose debt reached the JEDEC
// postponement limit. A skipped REF (Refresh-Skipping) retires debt without
// consuming the command slot, so the loop keeps going after one.
func (c *Controller) serviceForcedRefresh(ch int, now int64) bool {
	for r := 0; r < c.geom.Ranks; r++ {
		rr := &c.st.Refresh[ch*c.geom.Ranks+r]
		if rr.Debt < c.cfg.MaxRefreshDebt {
			continue
		}
		before := rr.Debt
		if c.issueRefresh(ch, r, now) {
			c.st.Stats.ForcedRefreshes++
			return true
		}
		if rr.Debt < before {
			return true // a zero-cost skipped REF retired the debt
		}
	}
	return false
}

// serviceOpportunisticRefresh retires refresh debt early when the rank has
// no queued work, keeping forced (stall-inducing) refreshes rare.
func (c *Controller) serviceOpportunisticRefresh(ch int, now int64) bool {
	for r := 0; r < c.geom.Ranks; r++ {
		rr := &c.st.Refresh[ch*c.geom.Ranks+r]
		if rr.Debt <= 0 || c.rankHasWork(ch, r) {
			continue
		}
		if c.issueRefresh(ch, r, now) {
			return true
		}
	}
	return false
}

// rankHasWork reports whether any queued request targets the rank.
func (c *Controller) rankHasWork(ch, r int) bool {
	for i := range c.st.ReadQ[ch] {
		if c.st.ReadQ[ch][i].Addr.Rank == r {
			return true
		}
	}
	for i := range c.st.WriteQ[ch] {
		if c.st.WriteQ[ch][i].Addr.Rank == r {
			return true
		}
	}
	return false
}

// scheduleRequests runs the FR-FCFS (or FCFS) pass over the active queue
// (writes in drain mode, reads otherwise, with a fallback to the other
// queue when the active one is empty). Returns true if a command issued.
func (c *Controller) scheduleRequests(ch int, now int64) bool {
	primary, secondary := &c.st.ReadQ[ch], &c.st.WriteQ[ch]
	if c.st.Drain[ch] {
		primary, secondary = secondary, primary
	}
	if c.schedulePass(ch, *primary, now) {
		return true
	}
	// The inactive queue may still use the slot for its own row hits when
	// the active queue is completely blocked; USIMM does the same to avoid
	// dead cycles. Only reads sneak in (writes wait for drain mode).
	if !c.st.Drain[ch] || len(*secondary) == 0 {
		return false
	}
	return c.schedulePass(ch, *secondary, now)
}

// schedulePass tries, in priority order: a ready row-hit column access,
// then (FR-FCFS) the oldest request's bank-preparation command. For FCFS
// only the oldest request may issue anything.
func (c *Controller) schedulePass(ch int, q []Request, now int64) bool {
	if len(q) == 0 {
		return false
	}
	if c.cfg.Scheduler == FCFS {
		return c.advanceRequest(ch, &q[0], now)
	}
	// Anti-starvation: once the oldest request has waited past the limit,
	// stop letting younger row hits bypass it.
	if lim := c.cfg.StarvationLimit; lim > 0 {
		if now-q[0].ArriveAt > lim {
			return c.advanceRequest(ch, &q[0], now)
		}
		// The cycle the cap engages changes the pass shape.
		c.horizon = min(c.horizon, q[0].ArriveAt+lim+1)
	}
	// All scratch is preallocated and generation-stamped: this pass runs
	// every cycle, so it must not allocate.
	c.touchedGen++
	gen := c.touchedGen
	bank, hit := c.bank[:len(q)], c.hit[:len(q)]
	// First-ready: oldest request whose column access is legal this
	// cycle. Each request's bank and row-hit bit are probed once; a
	// bank's column gate is probed once, since a later hit on a bank
	// whose gate is shut is shut too.
	for i := range q {
		a := &q[i].Addr
		bid := c.bankOf(a)
		bank[i], hit[i] = bid, c.dev.RowHit(c.dev.OpenRowAt(bid), a.Row)
		if !hit[i] || c.colProbed[bid] == gen {
			continue
		}
		c.colProbed[bid] = gen
		if c.tryColumn(ch, &q[i], now) {
			return true
		}
	}
	// Then FCFS: walk requests oldest-first and issue the first legal
	// preparation command (PRE for a conflict, ACT for a closed bank),
	// skipping banks already claimed by an earlier request this pass.
	for i := range q {
		bid := bank[i]
		if c.touched[bid] == gen {
			continue
		}
		c.touched[bid] = gen
		if c.prepareBank(ch, &q[i], bid, hit[i], now) {
			return true
		}
	}
	return false
}

// advanceRequest moves a single request forward by whatever command it
// needs next (FCFS path).
func (c *Controller) advanceRequest(ch int, req *Request, now int64) bool {
	bid := c.bankOf(&req.Addr)
	if c.dev.RowHit(c.dev.OpenRowAt(bid), req.Addr.Row) {
		return c.tryColumn(ch, req, now)
	}
	return c.prepareBank(ch, req, bid, false, now)
}

// tryColumn issues the RD/WR of a row-hitting request if legal, retiring it
// from its queue.
func (c *Controller) tryColumn(ch int, req *Request, now int64) bool {
	if req.Kind == core.OpRead {
		if t, ok := c.dev.EarliestRead(req.Addr, now); !c.gateOpen(t, ok, now) {
			return false
		}
		c.st.Stats.RowHits++
		c.obs.RowHit()
		done := c.dev.Read(req.Addr, now)
		// Copy before removal: req points into the queue, and removal
		// shifts later requests into its slot.
		r := *req
		c.removeRequest(&c.st.ReadQ[ch], r.ID)
		c.st.Completions = append(c.st.Completions, Completion{ID: r.ID, CoreID: r.CoreID, DoneAt: done, ArriveAt: r.ArriveAt}) //mcrlint:allow hotalloc DrainCompletions recycles this slice's capacity; steady state appends in place
		c.st.Stats.ReadsDone++
		c.st.Stats.TotalReadLatency += done - r.ArriveAt
		c.obs.ObserveRead(obs.AttributeRead(r.ArriveAt, r.PreAt, r.ActAt, now, done, r.RasBlocked, r.RefBlocked))
		if _, inMCR := c.dev.RowParams(r.Addr.Row); inMCR {
			c.st.Stats.MCRReads++
		}
		c.postColumn(r.Addr, now)
		return true
	}
	if t, ok := c.dev.EarliestWrite(req.Addr, now); !c.gateOpen(t, ok, now) {
		return false
	}
	c.st.Stats.RowHits++
	c.obs.RowHit()
	c.dev.Write(req.Addr, now)
	r := *req
	c.removeWrite(&c.st.WriteQ[ch], r)
	c.st.Stats.WritesDone++
	c.postColumn(r.Addr, now)
	return true
}

// postColumn applies the close-page policy after a column access.
func (c *Controller) postColumn(a core.Address, now int64) {
	if c.cfg.RowPolicy != ClosePage {
		return
	}
	if !c.rowWanted(a.Channel, c.bankOf(&a)) && c.dev.CanPrecharge(a, now+1) {
		// Model auto-precharge: close next cycle without using a slot.
		c.dev.Precharge(a, now+1)
	}
}

// prepareBank issues PRE (row conflict) or ACT (closed bank) for a request
// in bank bid, whose row-hit bit the caller probed, stamping the request's
// stall-attribution markers. Blocked attempts before the request's own
// PRE/ACT are classified: refresh in flight on the rank counts toward
// tRFC, an open row still inside its tRAS/tWR window toward the tRAS
// tail; everything else stays queueing by default.
func (c *Controller) prepareBank(ch int, req *Request, bid int, hit bool, now int64) bool {
	switch {
	case c.dev.OpenRowAt(bid) < 0:
		if t, ok := c.dev.EarliestActivate(req.Addr, now); c.gateOpen(t, ok, now) {
			c.dev.Activate(req.Addr, now)
			c.st.Stats.RowMisses++
			c.obs.RowMiss()
			req.ActAt = now
			return true
		}
		if req.PreAt < 0 && req.ActAt < 0 && c.dev.RefreshBusy(req.Addr.Channel, req.Addr.Rank, now) {
			req.RefBlocked++
		}
	case !hit:
		if t, ok := c.dev.EarliestPrecharge(req.Addr, now); c.gateOpen(t, ok, now) {
			c.dev.Precharge(req.Addr, now)
			c.st.Stats.RowConflicts++
			c.obs.RowConflict()
			req.PreAt = now
			return true
		}
		if req.PreAt < 0 {
			if c.dev.RefreshBusy(req.Addr.Channel, req.Addr.Rank, now) {
				req.RefBlocked++
			} else {
				req.RasBlocked++
			}
		}
	}
	return false
}

// rowWanted reports whether any request queued on channel ch targets the
// open row of bank bid.
func (c *Controller) rowWanted(ch, bid int) bool {
	if c.dev.OpenRowAt(bid) < 0 {
		return false
	}
	return c.hitsBank(c.st.ReadQ[ch], bid) || c.hitsBank(c.st.WriteQ[ch], bid)
}

// hitsBank reports whether a queued request row-hits bank bid.
func (c *Controller) hitsBank(q []Request, bid int) bool {
	for i := range q {
		if a := &q[i].Addr; c.bankOf(a) == bid && c.dev.RowHit(c.dev.OpenRowAt(bid), a.Row) {
			return true
		}
	}
	return false
}

// scheduleHousekeeping closes pages nobody wants under the close-page
// policy (open-page leaves rows alone). Returns true if a PRE issued.
func (c *Controller) scheduleHousekeeping(ch int, now int64) bool {
	if c.cfg.RowPolicy != ClosePage {
		return false
	}
	for r := 0; r < c.geom.Ranks; r++ {
		for b := 0; b < c.geom.Banks; b++ {
			bid := c.geom.BankIndex(ch, r, b)
			if c.dev.OpenRowAt(bid) < 0 || c.rowWanted(ch, bid) {
				continue
			}
			a := core.Address{Channel: ch, Rank: r, Bank: b}
			if t, ok := c.dev.EarliestPrecharge(a, now); c.gateOpen(t, ok, now) {
				c.dev.Precharge(a, now)
				return true
			}
		}
	}
	return false
}

// removeRequest deletes a read by id, preserving order.
func (c *Controller) removeRequest(q *[]Request, id int64) {
	for i := range *q {
		if (*q)[i].ID == id {
			*q = append((*q)[:i], (*q)[i+1:]...) //mcrlint:allow hotalloc in-place remove idiom: the result is strictly shorter, never reallocates
			return
		}
	}
}

// removeWrite deletes the first write matching the request's address and
// arrival, preserving order.
func (c *Controller) removeWrite(q *[]Request, req Request) {
	for i := range *q {
		if (*q)[i].Addr == req.Addr && (*q)[i].ArriveAt == req.ArriveAt {
			*q = append((*q)[:i], (*q)[i+1:]...) //mcrlint:allow hotalloc in-place remove idiom: the result is strictly shorter, never reallocates
			return
		}
	}
}
