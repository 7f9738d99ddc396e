package controller

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dram"
	"repro/internal/mcr/mcrtest"
)

// BenchmarkControllerTick times one Tick of the FR-FCFS scheduler on a
// loaded read queue: before every Tick the queue is topped back up to a
// fixed depth from a seeded stream of lines spread over the 16 banks of
// the single-core geometry, eight rows per bank, so each pass sees a mix
// of row hits, conflicts and closed banks. One op is the top-up plus the
// Tick plus draining the completions; it must not allocate.
func BenchmarkControllerTick(b *testing.B) {
	for _, depth := range []int{8, 24} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			dev, err := dram.New(dram.DefaultConfig(mcrtest.Mode(4, 4, 0.5)))
			if err != nil {
				b.Fatal(err)
			}
			c, err := New(DefaultConfig(), dev, nil)
			if err != nil {
				b.Fatal(err)
			}
			// Page interleaving puts a row's 128 lines consecutively, then
			// the 16 banks, so lines below 8*16*128 touch eight rows of
			// every bank.
			rng := rand.New(rand.NewSource(1))
			lines := make([]int64, 4096)
			for i := range lines {
				lines[i] = rng.Int63n(8 * 16 * 128)
			}
			next := 0
			topUp := func(now int64) {
				for r, _ := c.Pending(); r < depth; r++ {
					c.EnqueueRead(lines[next], 0, now)
					next = (next + 1) % len(lines)
				}
			}
			var now int64
			for ; now < 10_000; now++ { // reach the steady state first
				topUp(now)
				c.Tick(now)
				c.DrainCompletions()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				topUp(now)
				c.Tick(now)
				c.DrainCompletions()
				now++
			}
		})
	}
}
