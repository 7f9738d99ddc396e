package controller

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mcr"
	"repro/internal/mcr/mcrtest"
)

// TestSchedulePassProbeEdges pins the edges of the FR-FCFS pass's
// once-per-request row-hit probe and once-per-bank column-gate memo. Each
// case opens rows directly on the device, queues reads by address, runs
// some Ticks and checks what issued and which blocked counters moved.
func TestSchedulePassProbeEdges(t *testing.T) {
	at := func(rank, bank, row int) core.Address {
		return core.Address{Rank: rank, Bank: bank, Row: row}
	}
	cases := []struct {
		name string
		mode mcr.Mode
		// setup opens rows or starts refreshes and returns the queue to
		// schedule and the first cycle to tick.
		setup func(t *testing.T, c *Controller) ([]core.Address, int64)
		ticks int
		check func(t *testing.T, c *Controller, ids []int64)
	}{
		{
			name: "blocked_older_hit_does_not_hide_ready_younger_hit",
			mode: mcr.Off(),
			setup: func(t *testing.T, c *Controller) ([]core.Address, int64) {
				tim := c.dev.Timings().Normal
				// Bank 1 opens first; bank 0 one tRRD later, so at bank
				// 1's tRCD only bank 1's column gate is open.
				c.dev.Activate(at(0, 1, 5), 0)
				c.dev.Activate(at(0, 0, 7), int64(tim.TRRD))
				return []core.Address{at(0, 0, 7), at(0, 0, 7), at(0, 1, 5)}, int64(tim.TRCD)
			},
			ticks: 1,
			check: func(t *testing.T, c *Controller, ids []int64) {
				comps := c.DrainCompletions()
				if len(comps) != 1 || comps[0].ID != ids[2] {
					t.Fatalf("completions %v, want only the bank-1 read %d", comps, ids[2])
				}
				if q := c.st.ReadQ[0]; len(q) != 2 || q[0].ID != ids[0] || q[1].ID != ids[1] {
					t.Fatalf("queue after the pass: %+v, want the two bank-0 reads", q)
				}
			},
		},
		{
			name: "clone_row_of_open_gang_is_a_hit",
			mode: mcrtest.Mode(4, 4, 1),
			setup: func(t *testing.T, c *Controller) ([]core.Address, int64) {
				const row = 8
				clone := -1
				for _, r := range c.dev.CloneRows(row) {
					if r != row {
						clone = r
					}
				}
				if clone < 0 {
					t.Fatalf("row %d has no clone rows under 4x MCR", row)
				}
				c.dev.Activate(at(0, 0, row), 0)
				ready, ok := c.dev.EarliestRead(at(0, 0, clone), 0)
				if !ok {
					t.Fatalf("device does not treat clone row %d of open row %d as a hit", clone, row)
				}
				return []core.Address{at(0, 0, clone)}, ready
			},
			ticks: 1,
			check: func(t *testing.T, c *Controller, ids []int64) {
				st := c.Stats()
				if st.RowHits != 1 || st.RowConflicts != 0 || c.dev.Stats().Precharges != 0 {
					t.Fatalf("stats %+v, precharges %d: the clone-row read must issue as a hit", st, c.dev.Stats().Precharges)
				}
				if comps := c.DrainCompletions(); len(comps) != 1 || comps[0].ID != ids[0] {
					t.Fatalf("completions %v, want read %d", comps, ids[0])
				}
			},
		},
		{
			name: "blocked_first_per_bank_bumped_once_per_pass",
			mode: mcr.Off(),
			setup: func(t *testing.T, c *Controller) ([]core.Address, int64) {
				// Rank 0 bank 0 is open inside its tRAS window, so both
				// conflicts wait on the PRE; rank 1 is refreshing, so
				// both reads of its closed bank 0 wait on the ACT.
				c.dev.Activate(at(0, 0, 1), 0)
				c.dev.Refresh(0, 1, 0, 0)
				if !c.dev.RefreshBusy(0, 1, 3) {
					t.Fatal("rank 1 must be refreshing")
				}
				return []core.Address{at(0, 0, 2), at(0, 0, 3), at(1, 0, 4), at(1, 0, 9)}, 1
			},
			ticks: 3,
			check: func(t *testing.T, c *Controller, ids []int64) {
				if st := c.dev.Stats(); st.Precharges != 0 || st.Activates != 1 {
					t.Fatalf("device stats %+v: nothing may issue while blocked", st)
				}
				want := [][2]int64{{3, 0}, {0, 0}, {0, 3}, {0, 0}} // {RasBlocked, RefBlocked}
				for i, r := range c.st.ReadQ[0] {
					if got := [2]int64{r.RasBlocked, r.RefBlocked}; got != want[i] {
						t.Errorf("request %d (%v): {RasBlocked, RefBlocked} = %v, want %v", i, r.Addr, got, want[i])
					}
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newCtrl(t, tc.mode, nil)
			addrs, now := tc.setup(t, c)
			ids := make([]int64, len(addrs))
			for i, a := range addrs {
				ids[i] = c.st.NextID
				c.st.NextID++
				c.st.ReadQ[0] = append(c.st.ReadQ[0], Request{ID: ids[i], Kind: core.OpRead, Addr: a, ArriveAt: now, PreAt: -1, ActAt: -1})
			}
			for i := 0; i < tc.ticks; i++ {
				c.Tick(now + int64(i))
			}
			tc.check(t, c, ids)
		})
	}
}
