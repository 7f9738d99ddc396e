// Event-horizon computation and span replay for the event-driven
// engine. NextEventAt answers "through which cycle is every Tick
// provably a non-issuing pass?", and ReplaySkipped applies, in closed
// form, the only mutations those passes would have made — the
// stall-attribution counters on blocked requests.
//
// The correctness argument mirrors scheduler.go case by case. During a
// span in which the CPU side is quiescent (no enqueues — the sim engine
// guarantees that separately) and no command issues, the controller's
// inputs are frozen: queue contents, open rows, drain flags, refresh
// debts and every device timing gate are all constant. Each potential
// mutation is therefore gated by a precomputable absolute time:
//
//   - refresh-debt accrual: the minimum Refresh[i].NextDue;
//   - a drain-mode flip: detectable immediately (queue lengths frozen),
//     so a pending flip forces the span to length zero;
//   - a forced/opportunistic refresh: the first legal PRE of the rank's
//     first open bank, or the REF itself (issueRefresh's exact order);
//   - a column/ACT/PRE for a queued request: the device Earliest* time
//     of the same request the real pass would attempt (row hits, then
//     the generation-stamped first-per-bank walk);
//   - anti-starvation engaging: the cycle the oldest request's wait
//     crosses StarvationLimit, which changes the pass shape;
//   - blocked-slot reclassification: a rank's RefreshBusyUntil expiry;
//   - close-page housekeeping: the first legal PRE of an unwanted row;
//   - an MRS drain: the next legal PRE of any open bank, or the MRS
//     itself once all banks are closed.
//
// Every Earliest* gate is a max over frozen state, so "first legal at
// t" really means "illegal strictly before t": skipping to the minimum
// of the times above steps the exact cycle the stepped engine would
// first act on.

package controller

import (
	"math"

	"repro/internal/core"
)

// NextEventAt returns the earliest cycle strictly after now at which
// Tick could do anything beyond the blocked-counter bookkeeping that
// ReplaySkipped reproduces. Callers must invoke it only after Tick(now)
// has run and completions have been drained; now+1 (no skippable span)
// is always a safe answer and is returned whenever the next tick is not
// provably inert. The scan stops as soon as the running minimum reaches
// now+1: the final clamp would floor anything earlier there anyway.
//
//mcrlint:hotpath event-engine skip bound (per active step)
func (c *Controller) NextEventAt(now int64) int64 {
	from := now + 1
	if len(c.st.Completions) > 0 {
		return from // undrained completions: deliver before skipping
	}
	// Refresh-debt accrual is the universal horizon: every rank's debt
	// counter moves at NextDue, and Tick(now) already advanced NextDue
	// past now.
	ev := int64(math.MaxInt64)
	for i := range c.st.Refresh {
		if c.st.Refresh[i].NextDue < ev {
			ev = c.st.Refresh[i].NextDue
		}
	}
	if c.st.PendingMode != nil {
		// MRS drain: each cycle precharges at most one legal open bank;
		// the switch applies the tick after the last one closes.
		anyOpen := false
		for ch := 0; ch < c.geom.Channels; ch++ {
			for r := 0; r < c.geom.Ranks; r++ {
				for b := 0; b < c.geom.Banks; b++ {
					if c.dev.OpenRowAt(c.geom.BankIndex(ch, r, b)) < 0 {
						continue
					}
					anyOpen = true
					a := core.Address{Channel: ch, Rank: r, Bank: b}
					if t, ok := c.dev.EarliestPrecharge(a, from); ok && t < ev {
						if t <= from {
							return from
						}
						ev = t
					}
				}
			}
		}
		if !anyOpen {
			return from // all precharged: the MRS issues next tick
		}
		return clampFrom(ev, from)
	}
	for ch := 0; ch < c.geom.Channels; ch++ {
		nr, nw := len(c.st.ReadQ[ch]), len(c.st.WriteQ[ch])
		if drainNext(c.st.Drain[ch], nr, nw, c.cfg.HighWatermark, c.cfg.LowWatermark) != c.st.Drain[ch] {
			return from // the drain flag flips next tick
		}
		for r := 0; r < c.geom.Ranks; r++ {
			// A refresh window expiring reclassifies blocked slots
			// (RefBlocked vs RasBlocked), so it bounds the span.
			if bu, _ := c.dev.RankSpanState(ch, r); bu > now && bu < ev {
				ev = bu
			}
			rr := &c.st.Refresh[ch*c.geom.Ranks+r]
			if rr.Debt >= c.cfg.MaxRefreshDebt || (rr.Debt > 0 && !c.rankHasWork(ch, r)) {
				if t := c.refreshIssueAt(ch, r, from); t < ev {
					ev = t
				}
			}
			if ev <= from {
				return from
			}
		}
		primary, secondary := c.st.ReadQ[ch], c.st.WriteQ[ch]
		if c.st.Drain[ch] {
			primary, secondary = secondary, primary
		}
		if t := c.queueEventAt(primary, from); t < ev {
			ev = t
		}
		if c.st.Drain[ch] && len(secondary) > 0 {
			if t := c.queueEventAt(secondary, from); t < ev {
				ev = t
			}
		}
		if ev <= from {
			return from
		}
		if c.cfg.RowPolicy == ClosePage {
			for r := 0; r < c.geom.Ranks; r++ {
				for b := 0; b < c.geom.Banks; b++ {
					bid := c.geom.BankIndex(ch, r, b)
					if c.dev.OpenRowAt(bid) >= 0 && !c.rowWanted(ch, bid) {
						a := core.Address{Channel: ch, Rank: r, Bank: b}
						if t, ok := c.dev.EarliestPrecharge(a, from); ok && t < ev {
							ev = t
						}
					}
				}
			}
		}
	}
	// Defensive clamp through the device's own ready-time seam: no skip
	// ever outruns a timing-gate expiry, even one the analysis above has
	// no use for yet.
	if t := c.dev.NextReadyAt(now); t < ev {
		ev = t
	}
	return clampFrom(ev, from)
}

// ReplaySkipped applies the mutations of n inert Tick passes (cycles
// now+1 .. now+n) in closed form: per pass, every blocked request the
// scheduler would have walked gets its stall-attribution counter bumped
// n times. Valid only for spans NextEventAt(now) approved, where the
// walked set and each request's blocked classification are constant.
//
//mcrlint:hotpath event-engine span replay (per skip)
func (c *Controller) ReplaySkipped(now, n int64) {
	if n <= 0 || c.st.PendingMode != nil {
		return // an MRS drain never walks the queues
	}
	from := now + 1
	for ch := 0; ch < c.geom.Channels; ch++ {
		primary, secondary := c.st.ReadQ[ch], c.st.WriteQ[ch]
		if c.st.Drain[ch] {
			primary, secondary = secondary, primary
		}
		c.replayPass(primary, from, n)
		if c.st.Drain[ch] && len(secondary) > 0 {
			c.replayPass(secondary, from, n)
		}
	}
}

// replayPass mirrors schedulePass over one frozen queue: FCFS and
// starved passes touch only the oldest request; FR-FCFS walks the
// first-per-bank set through the same generation-stamped dedup scratch.
func (c *Controller) replayPass(q []Request, from, n int64) {
	if len(q) == 0 {
		return
	}
	if c.cfg.Scheduler == FCFS {
		c.replayBlocked(&q[0], c.bankOf(&q[0].Addr), from, n)
		return
	}
	if lim := c.cfg.StarvationLimit; lim > 0 && from-q[0].ArriveAt > lim {
		c.replayBlocked(&q[0], c.bankOf(&q[0].Addr), from, n)
		return
	}
	c.touchedGen++
	for i := range q {
		bid := c.bankOf(&q[i].Addr)
		if c.touched[bid] == c.touchedGen {
			continue
		}
		c.touched[bid] = c.touchedGen
		c.replayBlocked(&q[i], bid, from, n)
	}
}

// replayBlocked bumps one request's blocked counters exactly as n
// blocked prepareBank attempts on bank bid would: a refresh in flight on
// the rank (constant across the span — NextEventAt capped it at the
// window's expiry) classifies the slot as RefBlocked, an open row's
// unexpired tRAS/tWR window as RasBlocked; row hits mutate nothing.
func (c *Controller) replayBlocked(req *Request, bid int, from, n int64) {
	if c.dev.RowHit(c.dev.OpenRowAt(bid), req.Addr.Row) {
		return
	}
	busy := c.dev.RefreshBusy(req.Addr.Channel, req.Addr.Rank, from)
	if c.dev.OpenRowAt(bid) < 0 {
		if req.PreAt < 0 && req.ActAt < 0 && busy {
			req.RefBlocked += n
		}
		return
	}
	if req.PreAt < 0 {
		if busy {
			req.RefBlocked += n
		} else {
			req.RasBlocked += n
		}
	}
}

// queueEventAt returns the earliest cycle >= from at which a pass over
// the frozen queue could issue a command or change shape: any row hit's
// column time, the first-per-bank set's preparation times, and the
// anti-starvation threshold of the oldest request. It returns from as
// soon as one request is ready then, since nothing can come earlier.
// Like schedulePass it probes each request's row hit once and each
// bank's column gate once.
func (c *Controller) queueEventAt(q []Request, from int64) int64 {
	if len(q) == 0 {
		return math.MaxInt64
	}
	if c.cfg.Scheduler == FCFS {
		return c.requestEventAt(&q[0], from)
	}
	ev := int64(math.MaxInt64)
	if lim := c.cfg.StarvationLimit; lim > 0 {
		if from-q[0].ArriveAt > lim {
			// Already starved: only the oldest request may issue, and the
			// pass shape cannot change again.
			return c.requestEventAt(&q[0], from)
		}
		ev = q[0].ArriveAt + lim + 1 // the cycle starvation engages
	}
	c.touchedGen++
	gen := c.touchedGen
	bank, hit := c.bank[:len(q)], c.hit[:len(q)]
	for i := range q {
		a := &q[i].Addr
		bid := c.bankOf(a)
		bank[i], hit[i] = bid, c.dev.RowHit(c.dev.OpenRowAt(bid), a.Row)
		if !hit[i] || c.colProbed[bid] == gen {
			continue
		}
		c.colProbed[bid] = gen
		if t := c.columnEventAt(&q[i], from); t < ev {
			if t <= from {
				return from
			}
			ev = t
		}
	}
	for i := range q {
		bid := bank[i]
		if c.touched[bid] == gen {
			continue
		}
		c.touched[bid] = gen
		if hit[i] {
			continue // its column event is already folded in above
		}
		if t := c.prepareEventAt(&q[i], bid, from); t < ev {
			if t <= from {
				return from
			}
			ev = t
		}
	}
	return ev
}

// requestEventAt returns the first cycle >= from the request's next
// command (column access for a row hit, ACT for a closed bank, PRE for
// a conflict) becomes legal. The Earliest* gates are maxima over frozen
// state, so the command is illegal strictly before the returned cycle.
func (c *Controller) requestEventAt(req *Request, from int64) int64 {
	bid := c.bankOf(&req.Addr)
	if c.dev.RowHit(c.dev.OpenRowAt(bid), req.Addr.Row) {
		return c.columnEventAt(req, from)
	}
	return c.prepareEventAt(req, bid, from)
}

// columnEventAt is requestEventAt for a row hit: its RD/WR time.
func (c *Controller) columnEventAt(req *Request, from int64) int64 {
	var t int64
	var ok bool
	if req.Kind == core.OpRead {
		t, ok = c.dev.EarliestRead(req.Addr, from)
	} else {
		t, ok = c.dev.EarliestWrite(req.Addr, from)
	}
	if ok {
		return t
	}
	return math.MaxInt64
}

// prepareEventAt is requestEventAt for a miss on bank bid: its ACT time
// when the bank is closed, its PRE time on a conflict.
func (c *Controller) prepareEventAt(req *Request, bid int, from int64) int64 {
	if c.dev.OpenRowAt(bid) < 0 {
		if t, ok := c.dev.EarliestActivate(req.Addr, from); ok {
			return t
		}
		return math.MaxInt64
	}
	if t, ok := c.dev.EarliestPrecharge(req.Addr, from); ok {
		return t
	}
	return math.MaxInt64
}

// refreshIssueAt mirrors issueRefresh's exact order: the first open
// bank (bank order) gates everything on its PRE; with the rank fully
// precharged the REF itself is the event.
func (c *Controller) refreshIssueAt(ch, r int, from int64) int64 {
	base := c.geom.BankIndex(ch, r, 0)
	for b := 0; b < c.geom.Banks; b++ {
		if c.dev.OpenRowAt(base+b) >= 0 {
			a := core.Address{Channel: ch, Rank: r, Bank: b}
			if t, ok := c.dev.EarliestPrecharge(a, from); ok {
				return t
			}
			return math.MaxInt64
		}
	}
	if t, ok := c.dev.EarliestRefresh(ch, r, from); ok {
		return t
	}
	return math.MaxInt64
}

// drainNext applies updateDrainMode's transition function to frozen
// queue lengths; a result different from cur means the very next tick
// mutates the drain flag.
func drainNext(cur bool, nr, nw, high, low int) bool {
	switch {
	case nw >= high:
		return true
	case cur && nw <= low:
		return false
	case !cur && nr == 0 && nw > 0:
		return true
	case cur && nr > 0 && nw == 0:
		return false
	}
	return cur
}

// clampFrom floors an event time at the first skippable cycle.
func clampFrom(ev, from int64) int64 {
	if ev < from {
		return from
	}
	return ev
}
