// The event-driven engine. Each clock domain skips on its own, and the
// whole system skips when every domain is quiet at once.
//
//   - The controller records a quiet window when a tick issues nothing:
//     the minimum of every gate that tick probed plus the bounds no probe
//     covers (controller.NextEventAt). step calls Advance, which only
//     counts the ticks inside the window; the controller replays their
//     stall counters before its next real pass, an arrival, a mode
//     request or a Settle (every poll boundary, every export, the end of
//     the run).
//   - A core whose ROB is full behind an outstanding head read returns
//     from Cycle at once until its next completion.
//   - After each active step, skipTarget takes the minimum of the next
//     pending read completion, the controller's window, each core's
//     quiescence bound (cpu.SkipBound) and the amortized poll/checkpoint
//     boundary, and applySkip replays the span in closed form, power and
//     idle accounting included.
//
// Every bound is conservative (never later than the true first state
// change), so the skipped cycles are provably inert and results stay
// byte-identical to the stepped path; the parity tests and
// FuzzEngineParity pin that across all five mechanism backends. The
// controller window costs O(1) to read, so the horizon is computed after
// every active step, with no backoff and no device-wide gate scan.

package sim

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// Engine selects the cycle-advancement strategy of the run loop.
type Engine int

// Supported engines. EventDriven is the zero value: parity with the
// stepped path is pinned in CI, so skipping is the default.
const (
	// EventDriven steps active cycles and jumps over provably inert
	// spans (the fast path).
	EventDriven Engine = iota
	// Stepped forces the classic cycle-by-cycle loop (the reference
	// path the parity tests compare against).
	Stepped
)

// String names the engine.
func (e Engine) String() string {
	if e == Stepped {
		return "stepped"
	}
	return "event-driven"
}

// ParseEngine returns the engine String names; an unknown name fails
// with an error listing the valid choices.
func ParseEngine(name string) (Engine, error) {
	for _, e := range []Engine{Stepped, EventDriven} {
		if name == e.String() {
			return e, nil
		}
	}
	return 0, fmt.Errorf("unknown engine %q (valid: %s, %s)", name, Stepped, EventDriven)
}

// skip runs the event engine after step(mem) returned false: it replays
// the inert span up to the skip horizon and returns the last cycle
// replayed (mem itself when nothing was skipped).
//
//mcrlint:hotpath event-engine skip policy (per active step)
func (ls *loopState) skip(mem int64) int64 {
	t := ls.skipTarget(mem)
	if t <= mem+1 {
		return mem
	}
	ls.applySkip(mem, t-mem-1)
	return t - 1
}

// skipTarget returns the next memory cycle the loop must execute as a
// real step. A result of mem+1 means nothing is skippable; anything
// later means cycles mem+1..target-1 are provably inert and applySkip
// may replay them in closed form. Called only after step(mem) returned
// false.
//
// The result is the minimum over four candidates: the amortized poll
// boundary, the earliest pending read completion, each live core's
// quiescence bound and the controller's quiet window. The search stops
// as soon as the running minimum reaches mem+1.
//
//mcrlint:hotpath event-engine skip horizon (per active step)
func (ls *loopState) skipTarget(mem int64) int64 {
	next := mem + 1
	if !ls.warmed {
		return next // warmup tracking needs per-cycle retirement checks
	}
	// The amortized poll boundary: cancellation checks, resilience polls
	// and checkpoint writes must fire at exactly the cycles the stepped
	// loop fires them.
	t := ((mem >> 12) + 1) << 12
	if len(ls.pending) > 0 {
		d := ls.pending[0].DoneAt
		if d <= next {
			return next // a read completes next cycle
		}
		if d < t {
			t = d
		}
	}
	allDone := true
	for _, c := range ls.cores {
		if c.Done() {
			continue
		}
		allDone = false
		b := c.SkipBound()
		if b == 0 {
			return next // this core must step the next cycle
		}
		// A saturated bound (pure stall until an external completion)
		// contributes no candidate: the span is capped by the pending
		// completion or controller event instead.
		if b < math.MaxInt64/8 {
			if at := next + b/int64(core.CPUCyclesPerMemCycle); at < t {
				t = at
			}
		}
	}
	// Terminal check: once every core is done and nothing is in flight,
	// the very next step ends the run — never skip over it. (A done core
	// has an empty ROB, so "all done with reads in flight" cannot occur.)
	if allDone {
		r, w := ls.ctrl.Pending()
		if r == 0 && w == 0 && len(ls.pending) == 0 {
			return next
		}
	}
	if t <= next {
		return next
	}
	if at := ls.ctrl.NextEventAt(mem); at < t {
		t = at
	}
	return t
}

// applySkip replays the inert span mem+1..mem+n in closed form: each
// live core fast-forwards its retire/fetch arithmetic, the controller
// bumps the blocked-request stall counters, and the per-rank power
// accounting (active/standby/power-down plus the idle streaks driving
// power-down entry) advances exactly as n stepped cycles would have
// advanced it.
//
//mcrlint:hotpath event-engine span replay (per skip)
func (ls *loopState) applySkip(mem, n int64) {
	cpuSpan := n * int64(core.CPUCyclesPerMemCycle)
	for _, c := range ls.cores {
		if !c.Done() {
			c.FastForward(ls.cpuCycle, cpuSpan)
		}
	}
	ls.cpuCycle += cpuSpan
	ls.ctrl.ReplaySkipped(mem, n)
	from := mem + 1
	for ch := 0; ch < ls.geom.Channels; ch++ {
		for r := 0; r < ls.geom.Ranks; r++ {
			idx := ch*ls.geom.Ranks + r
			busyUntil, anyOpen := ls.dev.RankSpanState(ch, r)
			if anyOpen {
				// Open rows stay open across an inert span: busy throughout.
				ls.idleStreak[idx] = 0
				ls.activeCyc += n
				continue
			}
			// A refresh window is the only other busy source, and it
			// occupies the span's prefix [from, busyUntil).
			busy := busyUntil - from
			if busy < 0 {
				busy = 0
			}
			if busy > n {
				busy = n
			}
			ls.activeCyc += busy
			if busy > 0 {
				ls.idleStreak[idx] = 0
			}
			idle := n - busy
			if idle == 0 {
				continue
			}
			if pd := int64(ls.cfg.PowerDownCycles); pd > 0 {
				// The streak counts standby cycles until it saturates at
				// the power-down threshold, then freezes while the rank
				// sleeps — exactly the stepped switch, summed.
				sb := pd - int64(ls.idleStreak[idx])
				if sb < 0 {
					sb = 0
				}
				if sb > idle {
					sb = idle
				}
				ls.standbyCyc += sb
				ls.pdCyc += idle - sb
				ls.idleStreak[idx] += int(sb)
			} else {
				ls.standbyCyc += idle
				ls.idleStreak[idx] += int(idle)
			}
		}
	}
	ls.skippedCycles += n
}
