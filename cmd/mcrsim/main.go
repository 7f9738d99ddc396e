// Command mcrsim runs one MCR-DRAM system simulation from flags and prints
// the metrics.
//
// Usage:
//
//	mcrsim -workload tigr -k 4 -m 4 -region 1.0 -insts 2000000
//	mcrsim -workload comm2,leslie,black,mummer -multicore -k 2 -m 2 -region 0.5 -alloc 0.1
//	mcrsim -workload tigr -k 4 -compare          # baseline vs MCR, pooled
//	mcrsim -workload tigr -k 4 -checkpoint run.ckpt -checkpoint-every 1000000
//	mcrsim -workload tigr -k 4 -restore run.ckpt # strict resume after a crash
//	mcrsim -workload tigr -k 4 -engine stepped   # cycle-by-cycle reference loop
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // -pprof serves the default mux
	"os"
	"os/signal"
	"strings"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/integrity"
	"repro/internal/mcr"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/runplan"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// startPprof serves net/http/pprof on addr when non-empty (host profiling
// of the simulator itself, unrelated to simulated-cycle observability).
func startPprof(addr string) {
	if addr == "" {
		return
	}
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintln(os.Stderr, "mcrsim: pprof:", err)
		}
	}()
}

// writeChromeTrace exports one or more labelled tracers as a single
// Chrome trace_event JSON file (load in Perfetto / chrome://tracing).
func writeChromeTrace(path string, groups []obs.TraceGroup) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeGroups(f, groups); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseMode validates the -k/-m/-region flags with explicit choice lists
// instead of silent fallthrough.
func parseMode(k, m int, region float64) (mcr.Mode, error) {
	switch k {
	case 1:
		if m != 0 && m != 1 {
			return mcr.Mode{}, fmt.Errorf("-m %d needs an MCR mode; -k 1 disables MCR (valid -k: 1, 2, 4)", m)
		}
		return mcr.Off(), nil
	case 2, 4:
	default:
		return mcr.Mode{}, fmt.Errorf("invalid -k %d (valid: 1 = off, 2, 4)", k)
	}
	if m == 0 {
		m = k
	}
	mode, err := mcr.NewMode(k, m, region)
	if err != nil {
		return mcr.Mode{}, fmt.Errorf("%w (valid -m: powers of two with 1 <= m <= k; valid -region: 0.25, 0.5, 0.75, 1)", err)
	}
	return mode, nil
}

// parseWiring validates the -wiring flag.
func parseWiring(s string) (mcr.Wiring, error) {
	switch s {
	case "n1k":
		return mcr.KtoN1K, nil
	case "ktok":
		return mcr.KtoK, nil
	}
	return 0, fmt.Errorf("unknown wiring %q (valid: n1k, ktok)", s)
}

// validateCheckpointFlags resolves the -checkpoint/-checkpoint-every/
// -restore flag triple into a checkpoint policy, rejecting contradictory
// combinations. -checkpoint starts (or leniently resumes) a periodically
// snapshotted run; -restore strictly resumes from an existing snapshot,
// continuing to write to it only when -checkpoint-every is also given.
func validateCheckpointFlags(checkpoint, restore string, every int64, compare bool) (*sim.CheckpointConfig, error) {
	if every < 0 {
		return nil, fmt.Errorf("-checkpoint-every must be positive, got %d", every)
	}
	if compare && (checkpoint != "" || restore != "") {
		return nil, errors.New("-compare runs two simulations and cannot share one snapshot file; drop -checkpoint/-restore (sweeps checkpoint via reproduce -checkpoint-dir)")
	}
	switch {
	case checkpoint != "" && restore != "":
		return nil, errors.New("-checkpoint and -restore conflict: -checkpoint starts (or leniently resumes) a snapshotted run, -restore strictly resumes an existing one")
	case checkpoint != "":
		if every == 0 {
			return nil, errors.New("-checkpoint needs -checkpoint-every (snapshot interval in memory cycles)")
		}
		return &sim.CheckpointConfig{Path: checkpoint, EveryNCycles: every, Resume: true}, nil
	case restore != "":
		return &sim.CheckpointConfig{Path: restore, EveryNCycles: every, Resume: true, Strict: true}, nil
	case every != 0:
		return nil, errors.New("-checkpoint-every needs -checkpoint or -restore")
	}
	return nil, nil
}

// validateRestoreConfig checks — before the run starts — that the
// snapshot at path was produced by exactly this configuration, so a flag
// mismatch (a different -fault-seed, -seed, -insts, -workload or mode)
// is a usage error up front rather than a mid-startup failure.
func validateRestoreConfig(path string, cfg sim.Config) error {
	st, err := snapshot.ReadFile(path)
	if err != nil {
		return fmt.Errorf("-restore %s: %w", path, err)
	}
	want, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	if !bytes.Equal(st.ConfigJSON, want) {
		return fmt.Errorf("-restore %s: %w: the snapshot was taken under a different configuration (check -fault-seed, -seed, -insts, -workload and the mode flags)\n  snapshot: %s\n  flags:    %s",
			path, snapshot.ErrConfigMismatch, st.ConfigJSON, want)
	}
	return nil
}

// validateWorkloads checks every name against the Table 5 catalogue and
// lists the catalogue on failure.
func validateWorkloads(names []string) error {
	var valid []string
	for _, w := range trace.Workloads() {
		valid = append(valid, w.Name)
	}
	for _, n := range names {
		if _, err := trace.ByName(n); err != nil {
			return fmt.Errorf("unknown workload %q (valid: %s)", n, strings.Join(valid, ", "))
		}
	}
	return nil
}

func main() {
	var (
		workloads = flag.String("workload", "tigr", "comma-separated Table 5 workload names, one per core")
		k         = flag.Int("k", 1, "rows per MCR (1 disables MCR, 2 or 4)")
		m         = flag.Int("m", 0, "refreshes kept per MCR per 64 ms window (default K)")
		region    = flag.Float64("region", 1.0, "MCR region fraction L (0.25, 0.5, 0.75, 1)")
		allocFrac = flag.Float64("alloc", 0, "profile-based page allocation ratio (0 disables)")
		insts     = flag.Int64("insts", 2_000_000, "instructions per core")
		seed      = flag.Int64("seed", 1, "simulation seed")
		multicore = flag.Bool("multicore", false, "use the 16 GB quad-core geometry")
		noEA      = flag.Bool("no-early-access", false, "disable Early-Access")
		noEP      = flag.Bool("no-early-precharge", false, "disable Early-Precharge")
		noFR      = flag.Bool("no-fast-refresh", false, "disable Fast-Refresh")
		noRS      = flag.Bool("no-refresh-skipping", false, "disable Refresh-Skipping")
		wiring    = flag.String("wiring", "n1k", `refresh counter wiring: "n1k" (paper) or "ktok" (ablation)`)
		list      = flag.Bool("list", false, "list the workload catalogue and exit")
		combined  = flag.Bool("combined", false, "use a combined 4x+2x layout (25% each) instead of -k/-m/-region")
		alloc4    = flag.Float64("alloc4", 0.05, "combined layout: hottest fraction into the 4x band")
		alloc2    = flag.Float64("alloc2", 0.15, "combined layout: next fraction into the 2x band")
		check     = flag.Bool("check", false, "attach the retention-integrity checker")
		faultFrac = flag.Float64("fault-weak", 0, "inject a seeded weak-cell population at this fraction (0 disables)")
		faultSeed = flag.Int64("fault-seed", 0, "fault-injection seed (0 = the run seed)")
		degrade   = flag.Int("degrade-after", 0, "ECC events per rung before downgrading the MCR mode (0 = no degradation)")
		quar      = flag.Bool("quarantine", false, "demote failing clone gangs to 1x timing on their first ECC event")
		compare   = flag.Bool("compare", false, "also run the MCR-off baseline (pooled) and print the comparison")
		jobs      = flag.Int("jobs", 0, "-compare simulations in flight (0 = GOMAXPROCS)")
		verbose   = flag.Bool("v", false, "print per-simulation progress with throughput stats")
		jsonOut   = flag.Bool("json", false, "emit the result as JSON")
		histogram = flag.Bool("hist", false, "print the read-latency histogram")
		full      = flag.Bool("report", false, "print the full run report instead of the summary")
		ckptPath  = flag.String("checkpoint", "", "write crash-safe periodic snapshots of the full simulator state to this file, resuming from it when present (needs -checkpoint-every)")
		ckptEvery = flag.Int64("checkpoint-every", 0, "snapshot interval in memory cycles")
		restore   = flag.String("restore", "", "resume strictly from this snapshot file; it must exist and match the configuration flags")
		metrics   = flag.Bool("metrics", false, "attach the cycle-domain observability registry (stall attribution, per-bank commands)")
		traceOut  = flag.String("trace-out", "", "write the run's command/policy events as Chrome trace_event JSON to this file")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address, e.g. localhost:6060")
		engine    = flag.String("engine", "event-driven", "run loop: stepped or event-driven (identical results)")
	)
	flag.Parse()
	startPprof(*pprofAddr)

	if *list {
		for _, w := range trace.Workloads() {
			fmt.Printf("%-11s %-10s MPKI=%-4.0f rowhit=%.2f reads=%.0f%%\n", w.Name, w.Suite, w.MPKI, w.RowHit, w.ReadFrac*100)
		}
		return
	}

	names := strings.Split(*workloads, ",")
	if err := validateWorkloads(names); err != nil {
		fatal(err)
	}
	mode, err := parseMode(*k, *m, *region)
	if err != nil {
		fatal(err)
	}
	if *insts <= 0 {
		fatal(fmt.Errorf("-insts must be positive, got %d", *insts))
	}
	ck, err := validateCheckpointFlags(*ckptPath, *restore, *ckptEvery, *compare)
	if err != nil {
		usageFatal(err)
	}

	cfg := sim.DefaultConfig(names[0])
	cfg.Workloads = names
	cfg.InstsPerCore = *insts
	cfg.Seed = *seed
	cfg.AllocRatio = *allocFrac
	cfg.DRAM = dram.DefaultConfig(mode)
	if *combined {
		layout, err := mcr.NewLayout(
			mcr.Band{K: 4, M: 4, Region: 0.25},
			mcr.Band{K: 2, M: 2, Region: 0.25},
		)
		if err != nil {
			fatal(err)
		}
		cfg.DRAM.Mode = mcr.Off()
		cfg.DRAM.Layout = layout
		cfg.AllocRatio = 0
		cfg.AllocRatio4, cfg.AllocRatio2 = *alloc4, *alloc2
	}
	if *check {
		ic := integrity.DefaultConfig()
		cfg.Integrity = &ic
	}
	if *faultFrac > 0 {
		cfg.Fault = &fault.Config{
			Seed:         *faultSeed,
			WeakFraction: *faultFrac,
			// Compressed retention tails so weak rows observably fail
			// within CLI-sized runs (see internal/fault).
			TailMinFrac: 0.0005,
			TailMaxFrac: 0.005,
		}
	}
	if *degrade > 0 || *quar {
		cfg.Resilience = &sim.ResilienceConfig{DowngradeAfter: *degrade, Quarantine: *quar}
	}
	if *multicore {
		cfg.DRAM.Geom = core.MultiCoreGeometry()
	}
	cfg.DRAM.Mech = dram.Mechanisms{
		EarlyAccess:     !*noEA,
		EarlyPrecharge:  !*noEP,
		FastRefresh:     !*noFR,
		RefreshSkipping: !*noRS,
	}
	cfg.DRAM.Wiring, err = parseWiring(*wiring)
	if err != nil {
		fatal(err)
	}
	cfg.Engine, err = sim.ParseEngine(*engine)
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *compare {
		if err := runCompare(ctx, cfg, mode, *jobs, *verbose, *metrics, *traceOut); err != nil {
			fatal(err)
		}
		return
	}

	if ck != nil {
		cfg.Checkpoint = ck
		if ck.Strict {
			if err := validateRestoreConfig(ck.Path, cfg); err != nil {
				usageFatal(err)
			}
		}
	}
	if *metrics {
		cfg.Metrics = obs.NewRegistry()
	}
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer(0)
		cfg.Trace = tracer
	}
	res, err := sim.RunContext(ctx, cfg)
	if err != nil {
		fatal(err)
	}
	if *traceOut != "" {
		label := mode.String() + " " + strings.Join(cfg.Workloads, "+")
		if err := writeChromeTrace(*traceOut, []obs.TraceGroup{{Label: label, Events: tracer.Events()}}); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mcrsim: wrote %d trace events to %s (%d dropped by the ring)\n",
			tracer.Len(), *traceOut, tracer.Dropped())
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
		return
	}
	if *full {
		if err := report.Write(os.Stdout, cfg, res); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Printf("workloads         : %s\n", strings.Join(res.Workloads, ", "))
	fmt.Printf("mode              : %s\n", mode)
	fmt.Printf("exec time         : %d CPU cycles (%.3f ms)\n", res.ExecCPUCycles, float64(res.ExecCPUCycles)/float64(core.CPUClockMHz)/1000)
	fmt.Printf("IPC               : %.3f\n", res.IPC)
	fmt.Printf("reads             : %d, avg latency %.1f ns\n", res.ReadCount, res.AvgReadLatencyNS)
	fmt.Printf("row hits/misses   : %d/%d (conflicts %d)\n", res.Ctrl.RowHits, res.Ctrl.RowMisses, res.Ctrl.RowConflicts)
	fmt.Printf("MCR request frac  : %.1f%%\n", res.MCRRequestFraction*100)
	fmt.Printf("activates         : %d (%d MCR)\n", res.Dev.Activates, res.Dev.MCRActivates)
	fmt.Printf("refreshes         : %d (%d MCR, %d skipped)\n", res.Dev.Refreshes, res.Dev.MCRRefreshes, res.Dev.SkippedRefreshes)
	fmt.Printf("energy            : %.1f µJ (act %.1f, rd/wr %.1f, ref %.1f, bg %.1f)\n",
		res.Energy.TotalNJ()/1e3, res.Energy.ActivateNJ/1e3, res.Energy.ReadWriteNJ/1e3, res.Energy.RefreshNJ/1e3, res.Energy.BackgroundNJ/1e3)
	fmt.Printf("EDP               : %.3f nJ·s\n", res.EDPNJs)
	fmt.Printf("sim throughput    : %.2f Mcyc/s, %.2f Minst/s (%.0f ms wall)\n",
		float64(res.MemCycles)/res.Wall.Seconds()/1e6,
		float64(res.RetiredInsts)/res.Wall.Seconds()/1e6,
		float64(res.Wall.Microseconds())/1e3)
	if rs := res.Resilience; rs != nil {
		fmt.Printf("resilience        : %d ECC events, %d quarantined rows, %d downgrades (%s -> %s)\n",
			rs.ECCEvents, rs.QuarantinedRows, rs.Downgrades, rs.InitialMode, rs.FinalMode)
	}
	if o := res.Obs; o != nil {
		t := o.Stall.Total()
		pctOf := func(c obs.StallComponent) float64 {
			if t == 0 {
				return 0
			}
			return float64(o.Stall[c]) / float64(t) * 100
		}
		fmt.Printf("stall attribution : queue %.1f%%, tRAS %.1f%%, tRFC %.1f%%, tRP %.1f%%, tRCD %.1f%%, bus %.1f%%\n",
			pctOf(obs.StallQueue), pctOf(obs.StallRASTail), pctOf(obs.StallRFC),
			pctOf(obs.StallRP), pctOf(obs.StallRCD), pctOf(obs.StallBus))
		fmt.Printf("commands          : ACT %d, PRE %d, RD %d, WR %d, REF %d (debt peak %d)\n",
			o.Commands["ACT"], o.Commands["PRE"], o.Commands["RD"], o.Commands["WR"], o.Commands["REF"], o.RefreshDebtPeak)
	}
	if *check {
		if len(res.Integrity) == 0 {
			fmt.Println("integrity         : OK (no retention violations)")
		} else {
			fmt.Printf("integrity         : %d violations, first: %v\n", len(res.Integrity), res.Integrity[0])
		}
	}
	if *histogram {
		fmt.Printf("read latency p50/p95/p99: %.0f/%.0f/%.0f ns\n",
			res.Latency.Percentile(50), res.Latency.Percentile(95), res.Latency.Percentile(99))
		fmt.Print(res.Latency)
	}
}

// runCompare runs the configured variant and its MCR-off baseline through
// the pooled executor and prints the comparison block.
func runCompare(ctx context.Context, cfg sim.Config, mode mcr.Mode, jobs int, verbose, metrics bool, traceOut string) error {
	plan := &runplan.Plan{Name: "mcrsim"}
	plan.AddPair(strings.Join(cfg.Workloads, "+"), mode.String(), cfg, experiments.BaselineOf(cfg))
	ex := runplan.Executor{Jobs: jobs, Metrics: metrics}
	if traceOut != "" {
		ex.TraceCap = obs.DefaultTraceCap
	}
	if verbose {
		if metrics {
			ex.Sink = runplan.ObsLineSink(os.Stderr)
		} else {
			ex.Sink = runplan.LineSink(os.Stderr)
		}
	}
	results, err := ex.Execute(ctx, plan)
	if err != nil {
		return err
	}
	r := results[0]
	if traceOut != "" {
		groups := []obs.TraceGroup{{Label: "baseline", Events: r.BaseTrace.Events()},
			{Label: mode.String(), Events: r.Trace.Events()}}
		if err := writeChromeTrace(traceOut, groups); err != nil {
			return err
		}
	}
	return report.Compare(os.Stdout, mode.String(), r.Base, r.Run)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcrsim:", err)
	os.Exit(1)
}

// usageFatal reports a flag-combination error the way flag parsing does:
// the message, the usage text, exit code 2.
func usageFatal(err error) {
	fmt.Fprintln(os.Stderr, "mcrsim:", err)
	flag.Usage()
	os.Exit(2)
}
