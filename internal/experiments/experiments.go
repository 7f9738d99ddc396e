// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. 5-6): the Table 3 timing constraints, the Fig 10 SPICE
// transients, the single-core sweeps (Figs 11-13), the multi-core sweeps
// (Figs 14-16), the mechanism ablation (Fig 17) and the EDP comparison
// (Fig 18), plus the Fig 8 wiring table. cmd/reproduce and the repository
// benchmarks are thin wrappers over this package.
package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/mcr"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/runplan"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Options controls the fidelity and execution of the sweeps.
type Options struct {
	// Insts is the per-core instruction budget (0 selects the default:
	// 1M single-core, 500k per core multi-core).
	Insts int64
	// Seed feeds every simulation; baseline and MCR runs share it.
	Seed int64
	// Jobs bounds the executor's worker pool: 0 selects GOMAXPROCS,
	// 1 forces serial execution. Results are deterministic either way.
	Jobs int
	// Progress, when non-nil, receives one instrumented event per
	// finished simulation (wall time, simulated cycles/sec, retired
	// insts/sec, pending queue). The executor serializes calls, so the
	// sink needs no locking; use runplan.LineSink for plain text.
	Progress runplan.Sink
	// Context, when non-nil, cancels in-flight simulations (Ctrl-C,
	// test timeouts); nil means context.Background().
	Context context.Context
	// MaxMixes, when positive, truncates the multi-core workload list to
	// its first MaxMixes entries (benchmarks and CI use this).
	MaxMixes int
	// KeepGoing records failures per sweep cell and keeps executing
	// instead of cancelling the plan at the first error; the joined
	// per-cell errors are returned after the surviving results.
	KeepGoing bool
	// SpecTimeout bounds each simulation attempt's wall-clock time
	// (0 = unbounded); Retries grants failed simulations additional
	// attempts, waiting RetryBackoff before the first retry and doubling
	// it on each subsequent one. See runplan.Executor.
	SpecTimeout  time.Duration
	Retries      int
	RetryBackoff time.Duration
	// Metrics attaches a fresh observability registry to every simulation
	// (snapshots land in each result's Obs field and on progress events);
	// TraceCap, when positive, attaches a ring-buffer event tracer of
	// that capacity per run (runplan.Result.Trace). See runplan.Executor.
	Metrics  bool
	TraceCap int
	// CheckpointDir, when non-empty, gives every simulation a crash-safe
	// periodic snapshot under that directory; failed attempts (panics,
	// SpecTimeout) resume from the last snapshot on retry, and an
	// interrupted sweep rerun with the same options skips already-covered
	// cycles. CheckpointEvery is the snapshot interval in memory cycles
	// (0 selects runplan.DefaultCheckpointEvery). See runplan.Executor.
	CheckpointDir   string
	CheckpointEvery int64
	// Engine selects every simulation's run loop (sim.Config.Engine);
	// both engines produce byte-identical results.
	Engine sim.Engine
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.Insts == 0 {
		o.Insts = 1_000_000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Quick returns options sized for benchmarks and CI.
func Quick() Options { return Options{Insts: 150_000, Seed: 1} }

// execute runs a plan through the pooled executor configured by the
// options and returns results in spec order.
func (o Options) execute(plan *runplan.Plan) ([]runplan.Result, error) {
	ex := runplan.Executor{
		Jobs: o.Jobs, Sink: o.Progress,
		SpecTimeout: o.SpecTimeout, Retries: o.Retries,
		RetryBackoff: o.RetryBackoff, KeepGoing: o.KeepGoing,
		Metrics: o.Metrics, TraceCap: o.TraceCap,
		CheckpointDir: o.CheckpointDir, CheckpointEvery: o.CheckpointEvery,
	}
	return ex.Execute(o.Context, plan)
}

// runSweep executes a plan and folds its results into a Sweep: one point
// per spec, each reduced against its (memoized) baseline.
func (o Options) runSweep(plan *runplan.Plan) (*Sweep, error) {
	results, err := o.execute(plan)
	if err != nil && !o.KeepGoing {
		return nil, err
	}
	s := &Sweep{Figure: plan.Name}
	for _, r := range results {
		if r.Run == nil {
			continue // failed under KeepGoing; reported via err
		}
		s.Points = append(s.Points, SweepPoint{Workload: r.Workload, Config: r.Config, Reduction: reduce(r.Base, r.Run)})
		if r.Trace != nil {
			s.Traces = append(s.Traces, obs.TraceGroup{Label: r.Workload + " " + r.Config, Events: r.Trace.Events()})
		}
	}
	s.averageByConfig()
	// KeepGoing: return the partial sweep together with the joined
	// per-cell errors so callers can render what survived.
	return s, err
}

// baseConfig assembles the shared simulation configuration.
func baseConfig(o Options, multicore bool, workloads []string, mode mcr.Mode, mech dram.Mechanisms, allocRatio float64, shared bool) sim.Config {
	cfg := sim.Config{
		DRAM:            dram.DefaultConfig(mode),
		Ctrl:            controller.DefaultConfig(),
		CPU:             cpu.DefaultConfig(),
		Power:           power.Default(),
		Workloads:       workloads,
		InstsPerCore:    o.Insts,
		Seed:            o.Seed,
		AllocRatio:      allocRatio,
		SharedFootprint: shared,
		PowerDownCycles: 64,
		Engine:          o.Engine,
	}
	cfg.DRAM.Mech = mech
	if multicore {
		cfg.DRAM.Geom = core.MultiCoreGeometry()
	}
	return cfg
}

// Reduction is the improvement of an MCR run over its baseline, in
// percent (positive = MCR better), for the three reported metrics.
type Reduction struct {
	ExecTime    float64
	ReadLatency float64
	EDP         float64
}

// reduce compares two results. Either side may be nil (a plan spec
// without a baseline); the reduction is then zero.
func reduce(base, m *sim.Result) Reduction {
	if base == nil || m == nil {
		return Reduction{}
	}
	pct := func(b, v float64) float64 {
		if b == 0 {
			return 0
		}
		return (b - v) / b * 100
	}
	return Reduction{
		ExecTime:    pct(float64(base.ExecCPUCycles), float64(m.ExecCPUCycles)),
		ReadLatency: pct(base.AvgReadLatencyNS, m.AvgReadLatencyNS),
		EDP:         pct(base.EDPNJs, m.EDPNJs),
	}
}

// mean averages a slice of reductions.
func mean(rs []Reduction) Reduction {
	var sum Reduction
	for _, r := range rs {
		sum.ExecTime += r.ExecTime
		sum.ReadLatency += r.ReadLatency
		sum.EDP += r.EDP
	}
	n := float64(len(rs))
	if n == 0 {
		return Reduction{}
	}
	return Reduction{ExecTime: sum.ExecTime / n, ReadLatency: sum.ReadLatency / n, EDP: sum.EDP / n}
}

// BaselineOf derives the MCR-off comparison configuration of a variant:
// same workloads, seed and geometry, MCR and its mechanisms disabled.
// Plans built from one variant set per workload therefore share one
// memoized baseline per workload.
func BaselineOf(variant sim.Config) sim.Config {
	base := variant
	base.DRAM.Mode = mcr.Off()
	base.DRAM.Layout = mcr.Layout{}
	base.DRAM.TL = nil
	base.DRAM.NUAT = nil
	base.DRAM.CROW = nil
	base.DRAM.CLR = nil
	base.DRAM.Mech = dram.Mechanisms{}
	base.AllocRatio = 0
	base.AllocRatio4, base.AllocRatio2 = 0, 0
	return base
}

// MultiCoreMixes returns the paper's 16 quad-core workloads: 14
// multiprogrammed mixes (one workload per suite, rotated deterministically)
// plus the two multithreaded workloads run as four threads.
func MultiCoreMixes() [][]string {
	suites := trace.SuiteNames()
	var mixes [][]string
	for i := 0; i < 14; i++ {
		var mix []string
		for si, suite := range suites {
			ws := trace.BySuite(suite)
			mix = append(mix, ws[(i+si*3)%len(ws)].Name)
		}
		mixes = append(mixes, mix)
	}
	mixes = append(mixes,
		[]string{"MT-fluid", "MT-fluid", "MT-fluid", "MT-fluid"},
		[]string{"MT-canneal", "MT-canneal", "MT-canneal", "MT-canneal"},
	)
	return mixes
}

// MixName labels a multi-core mix.
func MixName(i int, mix []string) string {
	if len(mix) > 0 && mix[0] == mix[len(mix)-1] && len(mix) == 4 && (mix[0] == "MT-fluid" || mix[0] == "MT-canneal") {
		return mix[0]
	}
	return fmt.Sprintf("mix%02d", i+1)
}
