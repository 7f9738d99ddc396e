// Quiet windows for the event-driven engine. A Tick that issues nothing
// records the first cycle at which a later Tick could act; until then
// Advance only counts ticks, and the one mutation those inert passes
// would have made — the stall-attribution counters on blocked requests —
// is replayed in closed form before anything reads or changes the
// queues.
//
// The correctness argument is that the failing tick has already probed
// every gate it could act on. Each Can* is Earliest* <= now, and every
// Earliest* is a max over device state that only an issued command
// changes, so a gate the pass found shut is shut strictly before the
// time Earliest* returned. With no command issued and no request
// arriving, the queues, open rows, drain flags and refresh debts are
// frozen, so the next passes probe the same gates in the same order.
// The window is therefore the minimum of
//
//   - every gate the failing tick probed: column accesses, ACT/PRE for
//     the first-per-bank walk, a refresh's PRE or REF, close-page
//     housekeeping PREs (gateOpen folds each one);
//   - the cycle anti-starvation engages, which changes the pass shape
//     (schedulePass folds it);
//
// and the bounds no probe covers:
//
//   - refresh-debt accrual: the minimum Refresh[i].NextDue;
//   - a rank's refresh-window expiry, which reclassifies blocked slots
//     (RefBlocked vs RasBlocked) in the replay.
//
// A pending drain-mode flip, undrained completions or a pending MRS
// leave no window, and so does a tick that acted. An arrival, a mode
// request and Settle end the window early; a quarantine can change what
// a row hit is, so the run loop settles at every poll boundary.

package controller

// gateOpen reports whether a gate probed at now is open; a gate that
// opens later folds its opening cycle into the pass's horizon. ok is
// the Earliest* flag: false means the command does not apply to the
// bank's state at all, which only a command can change.
func (c *Controller) gateOpen(t int64, ok bool, now int64) bool {
	if !ok {
		return false
	}
	if t <= now {
		return true
	}
	c.horizon = min(c.horizon, t)
	return false
}

// window completes a failing tick's horizon with the bounds no probe
// covers and returns the first cycle a later tick could act on, or
// now+1 when the next tick is not provably inert.
func (c *Controller) window(now int64) int64 {
	if len(c.st.Completions) > 0 {
		return now + 1 // deliver before sleeping
	}
	ev := c.horizon
	for ch := 0; ch < c.geom.Channels; ch++ {
		if drainNext(c.st.Drain[ch], len(c.st.ReadQ[ch]), len(c.st.WriteQ[ch]), c.cfg.HighWatermark, c.cfg.LowWatermark) != c.st.Drain[ch] {
			return now + 1 // the drain flag flips next tick
		}
		for r := 0; r < c.geom.Ranks; r++ {
			if bu, _ := c.dev.RankSpanState(ch, r); bu > now {
				ev = min(ev, bu)
			}
		}
	}
	for i := range c.st.Refresh {
		ev = min(ev, c.st.Refresh[i].NextDue)
	}
	return max(ev, now+1)
}

// NextEventAt returns the first cycle after now at which Tick could do
// anything beyond the blocked-counter bookkeeping ReplaySkipped
// reproduces: the quiet window the last Tick or Advance recorded, or
// now+1 after a tick that acted or after any arrival. Call it after
// Tick(now) or Advance(now); it costs O(1).
//
//mcrlint:hotpath event-engine skip bound (per active step)
func (c *Controller) NextEventAt(now int64) int64 {
	return max(c.wake, now+1)
}

// Advance is the event engine's Tick: a cycle inside the quiet window
// is only counted, and the counted passes are replayed before the next
// real one (or an arrival, a mode request, Settle, ExportState). Tick
// stays the full pass on every cycle, so the stepped loop remains an
// independent reference.
//
//mcrlint:hotpath controller scheduling (per memory cycle)
func (c *Controller) Advance(now int64) {
	if now < c.wake {
		if c.quiet == 0 {
			c.quietFrom = now
		}
		c.quiet++
		return
	}
	c.Tick(now)
}

// Settle replays the ticks Advance counted and closes the quiet window,
// so the next Advance runs a full pass. The run loop calls it where the
// controller's state must be exact (a checkpoint, the end of the run)
// and where device state may change outside a command (the resilience
// poll).
func (c *Controller) Settle() {
	c.wake = 0
	if c.quiet == 0 {
		return
	}
	n := c.quiet
	c.quiet = 0
	c.ReplaySkipped(c.quietFrom-1, n)
}

// ReplaySkipped applies the mutations of n inert Tick passes (cycles
// now+1 .. now+n) in closed form: per pass, every blocked request the
// scheduler would have walked gets its stall-attribution counter bumped
// n times. Valid only for spans inside the window NextEventAt reported,
// where the walked set and each request's blocked classification are
// constant.
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
// the rank (constant across the window, which ends at its expiry)
// classifies the slot as RefBlocked, an open row's unexpired tRAS/tWR
// window as RasBlocked; row hits mutate nothing.
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

// drainNext is the write-drain transition with the Table 4 watermarks:
// enter drain at the high watermark or when only writes wait, leave it
// at the low watermark or when only reads wait. Applied to a failing
// tick's queue lengths, a result different from cur means the very next
// tick flips the flag.
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
