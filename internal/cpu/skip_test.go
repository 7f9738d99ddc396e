package cpu

import (
	"reflect"
	"testing"
)

// cloneCore builds a fresh core of the same workload and restores src's
// exported state onto it (replaying the trace generator), so both sides
// of a differential check start bit-identical.
func cloneCore(t *testing.T, name string, insts int64, src *Core) *Core {
	t.Helper()
	c := newCore(t, name, insts, newFakeMem())
	if err := c.ImportState(src.ExportState()); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestFastForwardMatchesStepping is the differential pin for the
// event-driven engine's CPU replay: at every quiescent point of a driven
// run (no reads in flight, SkipBound > 0), a clone fast-forwarded by the
// bound must land in exactly the state the original reaches by stepping
// the same span cycle by cycle.
func TestFastForwardMatchesStepping(t *testing.T) {
	const insts = 30_000
	const readLatency = 200 // CPU cycles from issue to completion
	for _, name := range []string{"stream", "comm1", "idle"} {
		t.Run(name, func(t *testing.T) {
			mem := newFakeMem()
			c := newCore(t, name, insts, mem)
			var now int64
			checks := 0
			for !c.Done() {
				if now > 100_000_000 {
					t.Fatal("run did not terminate")
				}
				if len(c.ReadsInFlight) == 0 {
					if b := c.SkipBound(); b > 0 {
						k := b
						if k > 4096 {
							k = 4096
						}
						clone := cloneCore(t, name, insts, c)
						clone.FastForward(now, k)
						for i := int64(0); i < k; i++ {
							c.Cycle(now+i, (now+i)/4)
						}
						now += k
						got, want := clone.ExportState(), c.ExportState()
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("FastForward(%d) at cycle %d diverged\n got: %+v\nwant: %+v",
								k, now-k, got, want)
						}
						checks++
						continue
					}
				}
				c.Cycle(now, now/4)
				now++
				for id, at := range mem.inflight {
					if now-at >= readLatency {
						c.Complete(id)
						delete(mem.inflight, id)
					}
				}
			}
			if checks == 0 {
				t.Error("no quiescent spans exercised; the differential check is vacuous")
			}
		})
	}
}

// TestSkipBoundZeroWhileProgressing pins the bound's safe side: whenever
// SkipBound answers 0 the very next cycle may change state, and a
// saturated core (reads in flight, stalled head) reports an unbounded
// quiescence that only an external completion ends.
func TestSkipBoundZeroWhileProgressing(t *testing.T) {
	mem := newFakeMem()
	c := newCore(t, "stream", 10_000, mem)
	var now int64
	sawUnbounded := false
	for !c.Done() && now < 10_000_000 {
		b := c.SkipBound()
		if len(c.ReadsInFlight) > 0 && b > 0 {
			// A positive bound with reads in flight must mean a pure
			// stall: stepping without delivering completions cannot
			// change anything.
			before := c.ExportState()
			c.Cycle(now, now/4)
			if after := c.ExportState(); !reflect.DeepEqual(before, after) {
				t.Fatalf("cycle %d: state changed during a declared pure stall", now)
			}
			sawUnbounded = true
			now++
			for id, at := range mem.inflight {
				if now-at >= 150 {
					c.Complete(id)
					delete(mem.inflight, id)
				}
			}
			continue
		}
		c.Cycle(now, now/4)
		now++
		for id, at := range mem.inflight {
			if now-at >= 150 {
				c.Complete(id)
				delete(mem.inflight, id)
			}
		}
	}
	if !sawUnbounded {
		t.Error("no pure-stall window observed on a memory-bound workload")
	}
}
