package cpu

import (
	"math"
	"testing"

	"repro/internal/trace"
)

// echoMem accepts every request and hands each read id back to the
// benchmark loop, which completes it on the next op. Its id buffer is
// sized once, so the loop never allocates.
type echoMem struct {
	nextID int64
	issued []int64
	hold   bool // never complete: reads stay outstanding forever
}

func (m *echoMem) EnqueueRead(line int64, coreID int, now int64) (int64, bool) {
	id := m.nextID
	m.nextID++
	if !m.hold {
		m.issued = append(m.issued, id)
	}
	return id, true
}

func (m *echoMem) EnqueueWrite(line int64, coreID int, now int64) bool { return true }

// BenchmarkCoreCycle times one Cycle of a core on the tigr trace (the
// memory-bound Table 5 workload the benchmark's tigr-4x runs). stalled:
// no read ever completes, so after warm-up the ROB is full behind an
// outstanding head read and every Cycle is a no-op. running: every read
// completes one cycle after it issues, so the core retires and fetches
// each cycle. Neither may allocate.
func BenchmarkCoreCycle(b *testing.B) {
	for _, tc := range []struct {
		name string
		hold bool
	}{{"stalled", true}, {"running", false}} {
		b.Run(tc.name, func(b *testing.B) {
			w, err := trace.ByName("tigr")
			if err != nil {
				b.Fatal(err)
			}
			const insts = math.MaxInt64 / 2
			gen, err := trace.New(w, 1, insts, 0)
			if err != nil {
				b.Fatal(err)
			}
			mem := &echoMem{hold: tc.hold, issued: make([]int64, 0, 64)}
			c, err := New(DefaultConfig(), 0, gen, mem, insts)
			if err != nil {
				b.Fatal(err)
			}
			var now int64
			cycle := func() {
				c.Cycle(now, now/4)
				for _, id := range mem.issued {
					c.Complete(id)
				}
				mem.issued = mem.issued[:0]
				now++
			}
			for now < 10_000 { // fill the ROB, warm the map
				cycle()
			}
			if tc.hold && c.SkipBound() != math.MaxInt64 {
				b.Fatalf("core not stalled after warm-up: occupancy %d", c.Occupancy)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
		})
	}
}
