// Package cpu models the out-of-order cores of the paper's Table 4 system
// in the USIMM style: a 3.2 GHz core with a 128-entry reorder buffer,
// 4-wide fetch and 2-wide retire, driven by a trace. Non-memory
// instructions flow through a fixed-depth pipeline; reads occupy their ROB
// entry until the memory controller returns data and block retirement at
// the ROB head; writes retire as soon as the write queue accepts them.
package cpu

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/trace"
)

// Config mirrors the processor row of paper Table 4.
type Config struct {
	ROBSize       int // 128
	FetchWidth    int // 4 instructions per CPU cycle
	RetireWidth   int // 2 instructions per CPU cycle
	PipelineDepth int // 10 (constant fill latency)
}

// DefaultConfig returns the paper's core configuration.
func DefaultConfig() Config {
	return Config{ROBSize: 128, FetchWidth: 4, RetireWidth: 2, PipelineDepth: 10}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.ROBSize <= 0 || c.FetchWidth <= 0 || c.RetireWidth <= 0 || c.PipelineDepth < 0 {
		return fmt.Errorf("cpu: config fields must be positive: %+v", c)
	}
	return nil
}

// MemorySystem is the controller interface the core dispatches through.
type MemorySystem interface {
	// EnqueueRead queues a read for the line; returns the completion id.
	EnqueueRead(line int64, coreID int, now int64) (int64, bool)
	// EnqueueWrite queues a write; false when the write queue is full.
	EnqueueWrite(line int64, coreID int, now int64) bool
}

// ROBEntry is one ROB slot: either a run of non-memory instructions
// (Count > 0, ReadID < 0) or a single memory read in flight.
type ROBEntry struct {
	Count  int   // non-memory instructions represented (1 for a read)
	ReadID int64 // completion id for reads, -1 otherwise
	Done   bool
}

// Core is one trace-driven processor.
type Core struct {
	cfg        Config
	id         int
	gen        *trace.Generator
	mem        MemorySystem
	totalInsts int64

	// State is everything Cycle mutates; a checkpoint carries it whole
	// (see state.go). Its metric counters (ReadsIssued, WritesIssued,
	// FetchStalls) read straight off the core.
	State

	// stalled records that the last Cycle left the ROB full behind an
	// outstanding head read: every Cycle is then a pure no-op until the
	// next Complete, which clears it.
	//mcrlint:nosnapshot derived from State; ImportState clears it and the next Cycle recomputes it
	stalled bool
}

// Record aliases the trace record for the pending slot.
type Record = trace.Record

// New builds a core over its trace generator and memory system.
func New(cfg Config, id int, gen *trace.Generator, mem MemorySystem, totalInsts int64) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if gen == nil || mem == nil {
		return nil, fmt.Errorf("cpu: core %d needs a generator and a memory system", id)
	}
	return &Core{
		cfg:        cfg,
		id:         id,
		gen:        gen,
		mem:        mem,
		totalInsts: totalInsts,
		State: State{
			ROB:           make([]ROBEntry, cfg.ROBSize),
			ReadsInFlight: make(map[int64]int),
			DoneAt:        -1,
		},
	}, nil
}

// Done reports whether the core has retired its whole trace.
func (c *Core) Done() bool { return c.State.Retired >= c.totalInsts }

// DoneAt returns the CPU cycle the last instruction retired, or -1.
func (c *Core) DoneAt() int64 { return c.State.DoneAt }

// Retired returns the retired instruction count.
func (c *Core) Retired() int64 { return c.State.Retired }

// Complete marks an outstanding read finished (called when the controller
// reports the completion id).
func (c *Core) Complete(readID int64) {
	if idx, ok := c.ReadsInFlight[readID]; ok {
		c.ROB[idx].Done = true
		delete(c.ReadsInFlight, readID)
		c.stalled = false
	}
}

// Cycle advances the core by one CPU cycle at time now (CPU cycles); memNow
// is the matching memory-controller cycle used for enqueues. A core
// whose ROB is full behind an outstanding head read can neither retire
// nor fetch, so it returns at once until the next Complete.
func (c *Core) Cycle(now, memNow int64) {
	if c.stalled || c.Done() {
		return
	}
	c.retire(now)
	c.fetch(memNow)
	c.stalled = c.Occupancy >= c.cfg.ROBSize && c.headWaiting()
}

// headWaiting reports whether the ROB head is a read still waiting on
// DRAM, which blocks retirement.
func (c *Core) headWaiting() bool {
	if c.Sz == 0 {
		return false
	}
	e := &c.ROB[c.Head]
	return e.ReadID >= 0 && !e.Done
}

// retire removes up to RetireWidth completed instructions from the ROB head.
func (c *Core) retire(now int64) {
	if now < int64(c.cfg.PipelineDepth) {
		return // pipeline still filling
	}
	budget := c.cfg.RetireWidth
	for budget > 0 && c.Sz > 0 {
		e := &c.ROB[c.Head]
		if e.ReadID >= 0 && !e.Done {
			return // head read still waiting on DRAM
		}
		take := e.Count
		if take > budget {
			take = budget
		}
		e.Count -= take
		budget -= take
		c.State.Retired += int64(take)
		c.Occupancy -= take
		if e.Count == 0 {
			e.ReadID = -1
			if c.Head++; c.Head == len(c.ROB) {
				c.Head = 0
			}
			c.Sz--
		}
		if c.State.Retired >= c.totalInsts && c.State.DoneAt < 0 {
			c.State.DoneAt = now
			return
		}
	}
}

// fetch inserts up to FetchWidth instructions, dispatching memory ops to
// the controller. A full ROB or a full memory queue stalls fetch.
func (c *Core) fetch(memNow int64) {
	budget := c.cfg.FetchWidth
	for budget > 0 {
		if c.Occupancy >= c.cfg.ROBSize {
			return // ROB full
		}
		if !c.HasPending {
			rec, ok := c.gen.Next()
			if !ok {
				return // trace exhausted; drain remains
			}
			c.Pending, c.HasPending = rec, true
			c.TailGap = rec.Gap
		}
		// Fetch the non-memory run preceding the memory op.
		if c.TailGap > 0 {
			n := min(budget, c.TailGap, c.cfg.ROBSize-c.Occupancy)
			c.pushNonMem(n)
			c.TailGap -= n
			budget -= n
			continue
		}
		if c.Pending.Line < 0 {
			// Pure-gap sentinel record fully fetched.
			c.HasPending = false
			continue
		}
		// Dispatch the memory operation itself (one instruction).
		if c.Pending.Kind == core.OpRead {
			id, ok := c.mem.EnqueueRead(c.Pending.Line, c.id, memNow)
			if !ok {
				c.FetchStalls++
				return // read queue full
			}
			idx := c.pushEntry(ROBEntry{Count: 1, ReadID: id})
			c.ReadsInFlight[id] = idx
			c.ReadsIssued++
		} else {
			if !c.mem.EnqueueWrite(c.Pending.Line, c.id, memNow) {
				c.FetchStalls++
				return // write queue full
			}
			c.pushEntry(ROBEntry{Count: 1, ReadID: -1, Done: true})
			c.WritesIssued++
		}
		c.HasPending = false
		budget--
	}
}

// pushNonMem merges a run of non-memory instructions into the ROB tail.
func (c *Core) pushNonMem(n int) {
	if n <= 0 {
		return
	}
	if c.Sz > 0 {
		e := &c.ROB[c.ring(c.Head+c.Sz-1)]
		if e.ReadID < 0 {
			e.Count += n
			c.Occupancy += n
			return
		}
	}
	c.pushEntry(ROBEntry{Count: n, ReadID: -1, Done: true})
}

// pushEntry appends a ROB entry, returning its ring index.
func (c *Core) pushEntry(e ROBEntry) int {
	idx := c.ring(c.Head + c.Sz)
	c.ROB[idx] = e
	c.Sz++
	c.Occupancy += e.Count
	return idx
}

// ring wraps a position in [0, 2*len(ROB)) onto the ring with a compare:
// a % on the runtime length is an integer division on every cycle.
func (c *Core) ring(i int) int {
	if i >= len(c.ROB) {
		i -= len(c.ROB)
	}
	return i
}
