package main

import (
	"fmt"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/mcr"
	"repro/internal/power"
	"repro/internal/sim"
)

// sweepInsts is the per-core instruction budget of the fig11-sweep cells
// (the size of experiments.Quick, pinned here so the workload cannot move
// under the benchmark).
const sweepInsts = 150_000

// sweepWorkloads are the two Table 5 workloads the fig11-sweep runs.
var sweepWorkloads = []string{"tigr", "comm2"}

// workload is one named benchmark input. cells lists the simulations it
// consists of; for fig11-sweep they are the sweep's 12 variant cells and
// 2 baselines, run end to end through experiments.Fig11.
type workload struct {
	name  string
	why   string
	sweep bool
	cells func(seed int64) ([]sim.Config, error)
}

// workloads are the benchmark's inputs. Each loads a different layer; see
// README.md for why each was chosen.
var workloads = []workload{
	{
		name: "tigr-4x",
		why:  "ACT-heavy row-hostile tigr under MCR [4/4x/100%reg]: controller.Tick, dram gates and mech dispatch dominate, few cycles skip",
		cells: func(seed int64) ([]sim.Config, error) {
			mode, err := mcr.NewMode(4, 4, 1.0)
			if err != nil {
				return nil, err
			}
			return []sim.Config{config([]string{"tigr"}, mode, dram.AllMechanisms(), 3_000_000, seed)}, nil
		},
	},
	{
		name: "idle",
		why:  "0.05-MPKI idle profile with MCR off: 99% of cycles skip, so cpu.SkipBound/FastForward and the skip horizon do the work",
		cells: func(seed int64) ([]sim.Config, error) {
			return []sim.Config{config([]string{"idle"}, mcr.Off(), dram.Mechanisms{}, 200_000_000, seed)}, nil
		},
	},
	{
		name: "quad-mix",
		why:  "four cores contend for one controller with writes and deep queues; the only workload whose set-up runs trace.Profile and alloc",
		cells: func(seed int64) ([]sim.Config, error) {
			mode, err := mcr.NewMode(4, 4, 0.5)
			if err != nil {
				return nil, err
			}
			cfg := config([]string{"tigr", "comm2", "black", "stream"}, mode, dram.AllMechanisms(), 1_000_000, seed)
			cfg.DRAM.Geom = core.MultiCoreGeometry()
			cfg.AllocRatio = 0.5
			return []sim.Config{cfg}, nil
		},
	},
	{
		name:  "fig11-sweep",
		why:   "experiments.Fig11 over tigr and comm2 on the runplan pool: the only workload with pool scheduling and baseline memoization",
		sweep: true,
		cells: fig11Cells,
	},
}

// config assembles a run the way the experiments package does: the
// paper's controller, core and power parameters with 64-cycle power-down.
func config(wls []string, mode mcr.Mode, mechs dram.Mechanisms, insts, seed int64) sim.Config {
	cfg := sim.Config{
		DRAM:            dram.DefaultConfig(mode),
		Ctrl:            controller.DefaultConfig(),
		CPU:             cpu.DefaultConfig(),
		Power:           power.Default(),
		Workloads:       wls,
		InstsPerCore:    insts,
		Seed:            seed,
		PowerDownCycles: 64,
	}
	cfg.DRAM.Mech = mechs
	return cfg
}

// fig11Cells lists the distinct simulations experiments.Fig11 runs over
// sweepWorkloads: per workload its MCR-off baseline, then modes [2/2x]
// and [4/4x] at ratios 0.25, 0.5 and 1.0 with Early-Access and
// Early-Precharge. The conformance test checks the list against the
// sweep's own points.
func fig11Cells(seed int64) ([]sim.Config, error) {
	var cells []sim.Config
	for _, wl := range sweepWorkloads {
		cells = append(cells, config([]string{wl}, mcr.Off(), dram.Mechanisms{}, sweepInsts, seed))
		for _, k := range []int{2, 4} {
			for _, ratio := range []float64{0.25, 0.5, 1.0} {
				mode, err := mcr.NewMode(k, k, ratio)
				if err != nil {
					return nil, err
				}
				mechs := dram.Mechanisms{EarlyAccess: true, EarlyPrecharge: true}
				cells = append(cells, config([]string{wl}, mode, mechs, sweepInsts, seed))
			}
		}
	}
	return cells, nil
}

// workloadByName looks a workload up by its benchmark name.
func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// metricSpec names one reported metric.
type metricSpec struct {
	name, unit, better string
}

// endToEndMetrics are reported by the untraced pass (--trace 0), host
// time unless the name says otherwise. failed_frac is printed on the
// human-readable lines only: it is 0 on a healthy tree, and the result
// line carries it as failed/attempted.
var endToEndMetrics = []metricSpec{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"mcycles_per_s", "Mcycle/s", "higher"},
	{"alloc_mb", "MB", "lower"},
}

// layerMetrics are reported by the traced pass (--trace 1). A metric that
// does not apply to a workload (runplan.* outside the sweep, set-up
// profiling without page allocation) reads 0.
var layerMetrics = []metricSpec{
	{"sim.steps", "count", "lower"},
	{"sim.skip_ratio", "ratio", "higher"},
	{"sim.horizon_ns", "ns", "lower"},
	{"sim.horizon_hit_ratio", "ratio", "higher"},
	{"sim.loop_self_ns", "ns", "lower"},
	{"sim.stepped_speedup", "ratio", "higher"},
	{"controller.tick_ns", "ns", "lower"},
	{"controller.tick_share", "ratio", "lower"},
	{"controller.nextevent_ns", "ns", "lower"},
	{"controller.replay_ns", "ns", "lower"},
	{"controller.enqueue_ns", "ns", "lower"},
	{"controller.enqueue_reject_ratio", "ratio", "lower"},
	{"controller.queue_depth_mean", "count", "lower"},
	{"controller.drain_ns", "ns", "lower"},
	{"dram.rankbusy_ns", "ns", "lower"},
	{"dram.rankspan_ns", "ns", "lower"},
	{"dram.gate_ns", "ns", "lower"},
	{"dram.nextready_ns", "ns", "lower"},
	{"dram.acts_per_kinst", "1/kinst", "lower"},
	{"mech.rowparams_ns", "ns", "lower"},
	{"cpu.cycle_ns", "ns", "lower"},
	{"cpu.fetch_stall_ratio", "ratio", "lower"},
	{"cpu.skipbound_ns", "ns", "lower"},
	{"cpu.fastforward_ns", "ns", "lower"},
	{"trace.record_ns", "ns", "lower"},
	{"trace.profile_s", "s", "lower"},
	{"alloc.build_s", "s", "lower"},
	{"snapshot.encode_us", "us", "lower"},
	{"snapshot.decode_us", "us", "lower"},
	{"snapshot.bytes", "bytes", "lower"},
	{"obs.overhead_pct", "%", "lower"},
	{"runplan.worker_busy_ratio", "ratio", "higher"},
	{"runplan.cell_wall_max_s", "s", "lower"},
	{"runplan.memo_hit_ratio", "ratio", "higher"},
	{"bench.traced_overhead_pct", "%", "lower"},
	{"bench.clock_ns", "ns", "lower"},
}
