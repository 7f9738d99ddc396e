// Package core defines the shared vocabulary of the MCR-DRAM simulator:
// memory-system geometry, decoded addresses, DRAM commands and the clock
// conventions every other package builds on.
//
// The conventions follow the paper's baseline configuration (Table 4):
// DDR3-1600 (800 MHz memory clock, 1.25 ns cycle), a 3.2 GHz processor
// (4 CPU cycles per memory cycle), one channel with 2 ranks of 8 banks,
// and 8 KB rows of 128 cache lines.
package core

import "fmt"

// Clock conventions. All DRAM state machines run on the memory clock; the
// processor model converts with CPUCyclesPerMemCycle.
const (
	// MemClockMHz is the DDR3 memory bus clock (DDR3-1600: 800 MHz).
	MemClockMHz = 800
	// MemCycleNS is the length of one memory-clock cycle in nanoseconds.
	MemCycleNS = 1000.0 / MemClockMHz
	// CPUClockMHz is the processor core clock (paper Table 4: 3.2 GHz).
	CPUClockMHz = 3200
	// CPUCyclesPerMemCycle converts memory cycles to CPU cycles.
	CPUCyclesPerMemCycle = CPUClockMHz / MemClockMHz
	// CacheLineBytes is the size of one column access (one cache line).
	CacheLineBytes = 64
	// RetentionWindowMs is the worst-case cell retention window in
	// milliseconds (JEDEC normal temperature range, paper Sec. 2): every
	// cell must be refreshed at least once per window. It lives here so
	// both internal/circuit (below internal/timing) and the rest of the
	// stack (via timing.RetentionWindowMs) share one definition.
	RetentionWindowMs = 64
)

// Geometry describes the DRAM organization of one memory system.
type Geometry struct {
	Channels    int // independent memory channels
	Ranks       int // ranks per channel
	Banks       int // banks per rank
	Rows        int // rows per bank
	Columns     int // cache lines per row
	SubarrayLog int // log2(rows per subarray); 512-row subarrays -> 9
}

// SingleCoreGeometry is the paper's 4 GB single-core configuration:
// 1 channel x 2 ranks x 8 banks x 32768 rows x 128 lines x 64 B = 4 GB.
func SingleCoreGeometry() Geometry {
	return Geometry{Channels: 1, Ranks: 2, Banks: 8, Rows: 32768, Columns: 128, SubarrayLog: 9}
}

// MultiCoreGeometry is the paper's 16 GB quad-core configuration
// (131072 rows per bank).
func MultiCoreGeometry() Geometry {
	return Geometry{Channels: 1, Ranks: 2, Banks: 8, Rows: 131072, Columns: 128, SubarrayLog: 9}
}

// Validate reports whether every geometry field is a positive power of two
// where required, returning a descriptive error otherwise.
func (g Geometry) Validate() error {
	check := func(name string, v int) error {
		if v <= 0 {
			return fmt.Errorf("core: geometry %s must be positive, got %d", name, v)
		}
		if v&(v-1) != 0 {
			return fmt.Errorf("core: geometry %s must be a power of two, got %d", name, v)
		}
		return nil
	}
	if err := check("Channels", g.Channels); err != nil {
		return err
	}
	if err := check("Ranks", g.Ranks); err != nil {
		return err
	}
	if err := check("Banks", g.Banks); err != nil {
		return err
	}
	if err := check("Rows", g.Rows); err != nil {
		return err
	}
	if err := check("Columns", g.Columns); err != nil {
		return err
	}
	if g.SubarrayLog < 0 || 1<<g.SubarrayLog > g.Rows {
		return fmt.Errorf("core: SubarrayLog %d out of range for %d rows", g.SubarrayLog, g.Rows)
	}
	return nil
}

// RowBytes returns the size of one row in bytes.
func (g Geometry) RowBytes() int64 { return int64(g.Columns) * CacheLineBytes }

// TotalBytes returns the capacity of the memory system in bytes.
func (g Geometry) TotalBytes() int64 {
	return int64(g.Channels) * int64(g.Ranks) * int64(g.Banks) * int64(g.Rows) * g.RowBytes()
}

// TotalRows returns the number of rows across all banks, ranks and channels.
func (g Geometry) TotalRows() int64 {
	return int64(g.Channels) * int64(g.Ranks) * int64(g.Banks) * int64(g.Rows)
}

// RowsPerSubarray returns the number of rows in one subarray.
func (g Geometry) RowsPerSubarray() int { return 1 << g.SubarrayLog }

// Address is a fully decoded DRAM address.
type Address struct {
	Channel int
	Rank    int
	Bank    int
	Row     int
	Column  int
}

// String renders the address in ch/rank/bank/row/col order.
func (a Address) String() string {
	return fmt.Sprintf("ch%d r%d b%d row%d col%d", a.Channel, a.Rank, a.Bank, a.Row, a.Column)
}

// BankID flattens (channel, rank, bank) into a dense index for per-bank
// bookkeeping tables.
func (a Address) BankID(g Geometry) int {
	return g.BankIndex(a.Channel, a.Rank, a.Bank)
}

// BankIndex is BankID from the address fields. Its pointer receiver is
// for the per-cycle paths: neither the six-field Geometry nor the
// five-field Address fits the four fields Go's SSA backend keeps in
// registers, so passing either by value into an inlined helper copies
// it through memory on every call.
func (g *Geometry) BankIndex(ch, rank, bank int) int {
	return (ch*g.Ranks+rank)*g.Banks + bank
}

// CommandKind enumerates the DRAM commands the controller can issue.
type CommandKind uint8

// DRAM command kinds.
const (
	CmdActivate  CommandKind = iota // open a row (or an MCR) in a bank
	CmdRead                         // column read burst
	CmdWrite                        // column write burst
	CmdPrecharge                    // close the open row of a bank
	CmdRefresh                      // per-rank auto refresh
	CmdMRS                          // mode register set (reconfigures MCR-mode)
)

var commandNames = [...]string{"ACT", "RD", "WR", "PRE", "REF", "MRS"}

// String returns the JEDEC-style mnemonic of the command.
func (k CommandKind) String() string {
	if int(k) < len(commandNames) {
		return commandNames[k]
	}
	return fmt.Sprintf("CommandKind(%d)", uint8(k))
}

// OpKind distinguishes memory request directions.
type OpKind uint8

// Memory operation kinds.
const (
	OpRead OpKind = iota
	OpWrite
)

// String returns "read" or "write".
func (o OpKind) String() string {
	if o == OpRead {
		return "read"
	}
	return "write"
}

// Request is one memory request as seen by the controller.
type Request struct {
	Kind     OpKind
	Addr     Address
	CoreID   int   // issuing core
	ArriveAt int64 // memory cycle the request entered the queue
	ROBSlot  int64 // identifier used by the CPU model to match completions
}

// NSToMemCycles converts a latency in nanoseconds to a (ceiling) number of
// memory-clock cycles; every timing constraint must round up to be safe.
func NSToMemCycles(ns float64) int {
	if ns <= 0 {
		return 0
	}
	c := int(ns / MemCycleNS)
	if float64(c)*MemCycleNS < ns-1e-9 {
		c++
	}
	return c
}

// MemCyclesToNS converts memory cycles back to nanoseconds.
func MemCyclesToNS(c int64) float64 { return float64(c) * MemCycleNS }
