// Package sim assembles the full system of paper Table 4 — trace-driven
// cores, the FR-FCFS memory controller, the MCR-DRAM device and the power
// model — and runs it to completion, reporting execution time, read
// latency, energy and EDP.
//
// # Adding a field to simulator state
//
// Any field the cycle loop can mutate is simulator state, wherever it
// lives — Sim itself, loopState, the device, a mechanism backend, the
// controller, a core. Checkpoint/restore (checkpoint.go) promises a
// resumed run byte-identical to an uninterrupted one, which holds only
// if every such field round-trips. Each component keeps its mutable
// state in one exported State struct that its hot path works on
// directly (dram.State, mech.State, controller.State, cpu.State), and
// its ExportState/ImportState copy that struct whole. The checklist,
// enforced by mcrlint's snapshotcover check (CI fails on a miss):
//
//  1. Put the field in the owning component's exported State struct —
//     exported, because encoding/gob silently drops unexported fields
//     (the check's gob-visibility obligation catches this too). If the
//     hot path writes a map there, make it in the constructor and
//     re-make it in ImportState when the decoded value is nil.
//     Loop-owned state (loopState, resilienceState) still travels in the
//     snapshot.LoopState/ResilienceState copies: add the field there and
//     copy it in exportState and importLoop/importResilience.
//  2. Or, if the field is deliberately not snapshotted — derived from
//     config at construction, per-pass scratch, debug-only — annotate
//     its declaration with `//mcrlint:nosnapshot <reason>`. The reason
//     is mandatory; a bare directive is itself a finding.
//  3. Extend TestCheckpointResumeParity's reach if the field influences
//     results under a configuration the parity matrix does not cover.
//
// Run `go run ./cmd/mcrlint -checks snapshotcover ./...` before pushing;
// TestSnapshotCoverCanary keeps the check itself honest.
package sim
