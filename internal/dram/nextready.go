// Ready-time seams for the event-driven engine: the device already
// keeps every JEDEC constraint as an absolute "earliest next cycle"
// gate (bank/rank next-command times, refresh-busy windows, bus and
// column turnaround). NextReadyAt folds them into the single earliest
// future cycle at which any command's eligibility can change, and
// RankSpanState exposes what the power model needs to account a skipped
// span in closed form.

package dram

import "math"

// NextReadyAt returns the earliest cycle strictly after now at which any
// timing gate in the device expires — the soonest moment a command that
// is blocked now could become issuable. math.MaxInt64 means every gate
// has already expired, so the device's eligibility is static until the
// controller issues something.
//
//mcrlint:hotpath event-engine skip bound (per active step)
func (d *Device) NextReadyAt(now int64) int64 {
	next := int64(math.MaxInt64)
	for i := range d.st.Banks {
		b := &d.st.Banks[i]
		next = foldGate(next, b.NextAct, now)
		next = foldGate(next, b.NextRead, now)
		next = foldGate(next, b.NextWrite, now)
		next = foldGate(next, b.NextPre, now)
	}
	for i := range d.st.Ranks {
		r := &d.st.Ranks[i]
		next = foldGate(next, r.NextAct, now)
		next = foldGate(next, r.NextReadOK, now)
		next = foldGate(next, r.RefreshBusyUntil, now)
	}
	for ch := range d.st.BusBusyUntil {
		next = foldGate(next, d.st.BusBusyUntil[ch], now)
		next = foldGate(next, d.st.NextCol[ch], now)
	}
	return next
}

// foldGate folds one absolute timing gate into the running minimum,
// ignoring gates that have already expired (t <= now).
func foldGate(next, t, now int64) int64 {
	if t > now && t < next {
		return t
	}
	return next
}

// RankSpanState reports the rank-level facts the power accounting needs
// to replay an idle span without stepping it: the cycle the in-flight
// refresh (if any) ends, and whether any bank holds a row open. While
// the controller issues nothing, RankBusy(t) for t in the span is
// exactly anyOpen || t < busyUntil — open rows stay open and the
// refresh window only expires.
func (d *Device) RankSpanState(ch, rankID int) (busyUntil int64, anyOpen bool) {
	busyUntil = d.st.Ranks[ch*d.cfg.Geom.Ranks+rankID].RefreshBusyUntil
	base := (ch*d.cfg.Geom.Ranks + rankID) * d.cfg.Geom.Banks
	for b := 0; b < d.cfg.Geom.Banks; b++ {
		if d.st.Banks[base+b].OpenRow >= 0 {
			anyOpen = true
			return
		}
	}
	return
}
