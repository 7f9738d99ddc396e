// Package controller is the memory controller of the simulated system: per
// channel read/write queues with watermark-based write draining, an
// FR-FCFS command scheduler (Rixner et al.), JEDEC refresh management with
// the paper's Refresh-Skipping hook, the physical address mapping, the
// profile-based row allocation hook, and the "multiple latency" support the
// paper adds (per-request MCR awareness; the MCR timing itself lives in the
// device model).
package controller

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/obs"
)

// SchedulerPolicy selects the command scheduling algorithm.
type SchedulerPolicy int

// Supported schedulers.
const (
	// FRFCFS prefers ready row-buffer hits, then the oldest request —
	// the paper's policy.
	FRFCFS SchedulerPolicy = iota
	// FCFS serves strictly in arrival order (ablation).
	FCFS
)

// String names the scheduler policy.
func (p SchedulerPolicy) String() string {
	if p == FCFS {
		return "FCFS"
	}
	return "FR-FCFS"
}

// RowPolicy selects what happens to a row after a column access.
type RowPolicy int

// Supported row policies.
const (
	// OpenPage leaves rows open until a conflict or refresh (paper
	// baseline).
	OpenPage RowPolicy = iota
	// ClosePage precharges as soon as no queued request wants the open
	// row (ablation).
	ClosePage
)

// String names the row policy.
func (p RowPolicy) String() string {
	if p == ClosePage {
		return "close-page"
	}
	return "open-page"
}

// Config mirrors paper Table 4's memory-controller row.
type Config struct {
	ReadQueueCap  int // 32
	WriteQueueCap int // 32
	HighWatermark int // 24: enter write drain
	LowWatermark  int // 8: leave write drain
	Mapping       MappingPolicy
	Scheduler     SchedulerPolicy
	RowPolicy     RowPolicy
	// MaxRefreshDebt is how many tREFI intervals may elapse before a
	// refresh becomes mandatory (JEDEC allows postponing up to 8).
	MaxRefreshDebt int
	// StarvationLimit caps FR-FCFS hit-first reordering: once the oldest
	// request has waited this many memory cycles, row hits may no longer
	// bypass it. 0 disables the cap (pure FR-FCFS, the paper's policy).
	StarvationLimit int64
}

// DefaultConfig returns the paper's controller configuration.
func DefaultConfig() Config {
	return Config{
		ReadQueueCap:   32,
		WriteQueueCap:  32,
		HighWatermark:  24,
		LowWatermark:   8,
		Mapping:        PageInterleave,
		Scheduler:      FRFCFS,
		RowPolicy:      OpenPage,
		MaxRefreshDebt: 8,
	}
}

// Validate checks the controller configuration.
func (c Config) Validate() error {
	switch {
	case c.ReadQueueCap <= 0 || c.WriteQueueCap <= 0:
		return fmt.Errorf("controller: queue capacities must be positive (%d, %d)", c.ReadQueueCap, c.WriteQueueCap)
	case c.HighWatermark <= c.LowWatermark:
		return fmt.Errorf("controller: high watermark %d must exceed low watermark %d", c.HighWatermark, c.LowWatermark)
	case c.HighWatermark > c.WriteQueueCap:
		return fmt.Errorf("controller: high watermark %d exceeds write queue capacity %d", c.HighWatermark, c.WriteQueueCap)
	case c.LowWatermark < 0:
		return fmt.Errorf("controller: low watermark must be non-negative, got %d", c.LowWatermark)
	case c.MaxRefreshDebt < 1:
		return fmt.Errorf("controller: MaxRefreshDebt must be at least 1, got %d", c.MaxRefreshDebt)
	}
	return nil
}

// Request is one queued memory request. PreAt/ActAt record when the
// request's own PRE/ACT issued (-1 until then); RasBlocked/RefBlocked
// count scheduler cycles the request's next command was gated by the
// open row's tRAS/tWR window or a refresh in flight. The stall
// accounter (internal/obs) partitions the retired latency from these
// markers.
type Request struct {
	ID       int64
	Kind     core.OpKind
	Addr     core.Address
	CoreID   int
	ArriveAt int64

	PreAt, ActAt           int64
	RasBlocked, RefBlocked int64
}

// Completion reports a finished read back to the CPU model.
type Completion struct {
	ID       int64
	CoreID   int
	DoneAt   int64 // memory cycle the data burst completed
	ArriveAt int64
}

// RankRefresh tracks the refresh obligation of one rank.
type RankRefresh struct {
	NextDue int64 // cycle the next tREFI interval elapses
	Debt    int   // intervals elapsed but not yet refreshed
	Counter int   // REF sequence number (13-bit window position)
}

// Stats aggregates controller-level counters.
type Stats struct {
	ReadsQueued      int64
	WritesQueued     int64
	ReadsDone        int64
	WritesDone       int64
	RowHits          int64
	RowMisses        int64
	RowConflicts     int64
	MCRReads         int64 // column reads served from MCR rows
	TotalReadLatency int64 // memory cycles, arrival to data completion
	ForcedRefreshes  int64
	ModeChanges      int64 // MRS mode switches applied (degradation path)
}

// Controller drives one dram.Device.
type Controller struct {
	cfg    Config
	dev    *dram.Device
	geom   core.Geometry
	mapper *AddressMapper
	rows   *alloc.RowMap

	// st is the queues, refresh obligations and counters the scheduler
	// mutates; a checkpoint carries it whole (see state.go).
	st State

	// touched is schedulePass's per-pass bank-dedup scratch: one
	// generation stamp per bank, bumped each pass, so the per-cycle
	// scheduler never allocates a map.
	//mcrlint:nosnapshot per-pass scratch, dead between scheduler passes
	touched []int64
	//mcrlint:nosnapshot per-pass scratch, dead between scheduler passes
	touchedGen int64
	// colProbed stamps, with the same generation, each bank whose column
	// gate a pass already probed and found shut: the gate depends only
	// on bank, rank and channel, and a pass walks one queue of one kind.
	//mcrlint:nosnapshot per-pass scratch
	colProbed []int64
	// bank and hit hold, per queue slot, the flat bank index and row-hit
	// bit a pass probed once and its FCFS walk reuses; sized to the
	// larger queue capacity.
	//mcrlint:nosnapshot per-pass scratch
	bank []int
	//mcrlint:nosnapshot per-pass scratch
	hit []bool

	// obs/tr, when non-nil, receive row-buffer outcomes, the per-read
	// stall attribution and MRS events; nil-safe no-ops otherwise.
	obs *obs.Registry
	tr  *obs.Tracer
}

// New builds a controller over a device, applying the given row allocation
// (nil for identity).
func New(cfg Config, dev *dram.Device, rows *alloc.RowMap) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	geom := dev.Config().Geom
	mapper, err := NewAddressMapper(geom, cfg.Mapping)
	if err != nil {
		return nil, err
	}
	if rows == nil {
		rows = alloc.Identity(geom)
	}
	banks := geom.Channels * geom.Ranks * geom.Banks
	depth := max(cfg.ReadQueueCap, cfg.WriteQueueCap)
	c := &Controller{
		cfg:       cfg,
		dev:       dev,
		geom:      geom,
		mapper:    mapper,
		rows:      rows,
		touched:   make([]int64, banks),
		colProbed: make([]int64, banks),
		bank:      make([]int, depth),
		hit:       make([]bool, depth),
		st: State{
			ReadQ:   make([][]Request, geom.Channels),
			WriteQ:  make([][]Request, geom.Channels),
			Drain:   make([]bool, geom.Channels),
			Refresh: make([]RankRefresh, geom.Channels*geom.Ranks),
			TREFI:   int64(dev.Timings().Normal.TREFI),
		},
	}
	for i := range c.st.Refresh {
		c.st.Refresh[i].NextDue = c.st.TREFI
	}
	return c, nil
}

// Device returns the controlled device.
func (c *Controller) Device() *dram.Device { return c.dev }

// Mapper returns the address mapper.
func (c *Controller) Mapper() *AddressMapper { return c.mapper }

// Stats returns a copy of the counters.
func (c *Controller) Stats() Stats { return c.st.Stats }

// SetObservability attaches a metrics registry and an event tracer
// (either may be nil). Attach before the first Tick.
func (c *Controller) SetObservability(reg *obs.Registry, tr *obs.Tracer) {
	c.obs, c.tr = reg, tr
}

// bankOf returns the flat bank index of a queued address.
func (c *Controller) bankOf(a *core.Address) int {
	return c.geom.BankIndex(a.Channel, a.Rank, a.Bank)
}

// decode maps a line number to its final DRAM coordinates, applying the
// profile-based row allocation.
func (c *Controller) decode(line int64) core.Address {
	return c.rows.Map(c.mapper.Decode(line))
}

// CanEnqueueRead reports whether the read queue for line's channel has room.
func (c *Controller) CanEnqueueRead(line int64) bool {
	return len(c.st.ReadQ[c.decode(line).Channel]) < c.cfg.ReadQueueCap
}

// CanEnqueueWrite reports whether the write queue for line's channel has room.
func (c *Controller) CanEnqueueWrite(line int64) bool {
	return len(c.st.WriteQ[c.decode(line).Channel]) < c.cfg.WriteQueueCap
}

// EnqueueRead queues a read and returns its completion id; ok is false when
// the queue is full.
//
//mcrlint:hotpath dram request admission (per CPU-issued read)
func (c *Controller) EnqueueRead(line int64, coreID int, now int64) (int64, bool) {
	a := c.decode(line)
	if len(c.st.ReadQ[a.Channel]) >= c.cfg.ReadQueueCap {
		return 0, false
	}
	// Read-around-write: a pending write to the same line can serve the
	// read immediately (store forwarding at the controller).
	wq := c.st.WriteQ[a.Channel]
	for i := range wq {
		if wq[i].Addr == a {
			id := c.st.NextID
			c.st.NextID++
			c.st.Completions = append(c.st.Completions, Completion{ID: id, CoreID: coreID, DoneAt: now + 1, ArriveAt: now}) //mcrlint:allow hotalloc DrainCompletions recycles this slice's capacity; steady state appends in place
			c.st.Stats.ReadsQueued++
			c.st.Stats.ReadsDone++
			c.st.Stats.TotalReadLatency++
			// Forwarded reads never touch the device: their one cycle is
			// pure queueing in the stall attribution.
			c.obs.ObserveRead(obs.AttributeRead(now, -1, -1, now+1, now+1, 0, 0))
			return id, true
		}
	}
	id := c.st.NextID
	c.st.NextID++
	c.st.ReadQ[a.Channel] = append(c.st.ReadQ[a.Channel], Request{ID: id, Kind: core.OpRead, Addr: a, CoreID: coreID, ArriveAt: now, PreAt: -1, ActAt: -1}) //mcrlint:allow hotalloc bounded by ReadQueueCap; capacity stops growing after the first full queue
	c.st.Stats.ReadsQueued++
	return id, true
}

// EnqueueWrite queues a write; false when the queue is full. Writes
// complete (from the CPU's view) at enqueue.
//
//mcrlint:hotpath dram request admission (per CPU-issued write)
func (c *Controller) EnqueueWrite(line int64, coreID int, now int64) bool {
	a := c.decode(line)
	if len(c.st.WriteQ[a.Channel]) >= c.cfg.WriteQueueCap {
		return false
	}
	c.st.WriteQ[a.Channel] = append(c.st.WriteQ[a.Channel], Request{ID: -1, Kind: core.OpWrite, Addr: a, CoreID: coreID, ArriveAt: now, PreAt: -1, ActAt: -1}) //mcrlint:allow hotalloc bounded by WriteQueueCap; capacity stops growing after the first full queue
	c.st.Stats.WritesQueued++
	return true
}

// Pending returns the number of queued reads and writes.
func (c *Controller) Pending() (reads, writes int) {
	for ch := range c.st.ReadQ {
		reads += len(c.st.ReadQ[ch])
		writes += len(c.st.WriteQ[ch])
	}
	return
}

// DrainCompletions returns the finished-read notifications and resets the
// internal list, keeping its capacity so the steady-state cycle loop never
// reallocates it. The returned slice aliases that storage: it is valid
// until the next Tick or Enqueue call.
func (c *Controller) DrainCompletions() []Completion {
	out := c.st.Completions
	c.st.Completions = c.st.Completions[:0]
	return out
}
