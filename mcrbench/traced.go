package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/obs"
	"repro/internal/runplan"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// Sizes of the micro-timings taken on state a traced run left behind:
// calls per timed loop, snapshot round trips, and generator records.
const (
	microCalls    = 200_000
	snapshotReps  = 3
	recordMinRecs = 100_000
)

// sink keeps micro-timed results live so the calls are not optimised
// away.
var sink int64

// tracedPass runs traced rounds until seconds have passed (at least one)
// and reports each per-layer metric as the median over rounds.
func tracedPass(ctx context.Context, w workload, seed int64, seconds time.Duration, scratch string) (*report, error) {
	cells, err := w.cells(seed)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	start := time.Now()
	var warm []*sim.Result
	for _, cfg := range cells {
		res, err := simRun(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("warm-up run: %w", err)
		}
		warm = append(warm, res)
	}
	rep.warmup = time.Since(start)
	if rep.digest, err = digestResults(warm); err != nil {
		return nil, err
	}
	start = time.Now()
	var ref string
	for n := 0; n == 0 || time.Since(start) < seconds; n++ {
		m, err := tracedRound(ctx, w, seed, cells, scratch, rep, &ref)
		if err != nil {
			return nil, err
		}
		for name, v := range m {
			rep.add(name, v)
		}
	}
	return rep, nil
}

// tracedRound measures every cell once and returns the round's metric
// values. Besides the traced loop, each cell runs untraced (the
// reference), with an obs registry, under the Stepped engine and with a
// mid-run checkpoint; outputs of all of them are checked against the
// reference. ref carries the sweep digest across rounds.
func tracedRound(ctx context.Context, w workload, seed int64, cells []sim.Config, scratch string, rep *report, ref *string) (map[string]float64, error) {
	var (
		lt                                      layerTimes
		plainWall, metricsWall, steppedWall     time.Duration
		profile, build, encode, decode          time.Duration
		gate, nextReady, rowParams, record      time.Duration
		obsStepped, obsSkipped, acts, retired   int64
		fetchStalls, coreCycles, snapBytes      int64
		nGate, nNextReady, nRowParams, nRecords int64
	)
	for _, cfg := range cells {
		plain, err := simRun(ctx, cfg)
		if err != nil {
			return nil, err
		}
		plainWall += plain.Wall
		want, err := digestResults([]*sim.Result{plain})
		if err != nil {
			return nil, err
		}

		mcfg := cfg
		mcfg.Metrics = obs.NewRegistry()
		res, err := simRun(ctx, mcfg)
		if err != nil {
			return nil, err
		}
		metricsWall += res.Wall
		obsStepped += res.Obs.EngineSteppedCycles
		obsSkipped += res.Obs.EngineSkippedCycles
		got, err := digestResults([]*sim.Result{res})
		rep.check(err == nil && got == want)

		scfg := cfg
		scfg.Engine = sim.Stepped
		if res, err = simRun(ctx, scfg); err != nil {
			return nil, err
		}
		steppedWall += res.Wall
		got, err = digestResults([]*sim.Result{res})
		rep.check(err == nil && got == want)

		rp, err := newReplica(cfg, &lt)
		if err != nil {
			return nil, err
		}
		if err := rp.run(); err != nil {
			return nil, err
		}
		err = conforms(rp, plain)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mcrbench: traced loop diverged from sim.Run:", err)
		}
		rep.check(err == nil)
		profile += rp.profile
		build += rp.build
		acts += rp.dev.Stats().Activates
		for _, c := range rp.cores {
			retired += c.Retired()
			fetchStalls += c.FetchStalls
			coreCycles += c.DoneAt() + 1
		}

		d, n := timeRowParams(rp.dev, rp.hook.acts)
		rowParams, nRowParams = rowParams+d, nRowParams+n

		snap, err := midRunSnapshot(ctx, cfg, plain.MemCycles/2, scratch)
		if err != nil {
			return nil, err
		}
		enc, dec, size, err := timeSnapshot(snap, cfg)
		if err != nil {
			return nil, err
		}
		encode, decode, snapBytes = encode+enc, decode+dec, snapBytes+size
		g, ng, nr, nn, err := timeGates(snap, cfg, rp.hook.acts)
		if err != nil {
			return nil, err
		}
		gate, nGate, nextReady, nNextReady = gate+g, nGate+ng, nextReady+nr, nNextReady+nn

		for i, name := range cfg.Workloads {
			d, n, err := timeRecords(name, coreSeed(cfg.Seed, i), cfg.InstsPerCore, rp.baseRow(i))
			if err != nil {
				return nil, err
			}
			record, nRecords = record+d, nRecords+n
		}
	}

	m := map[string]float64{
		"sim.steps":                       float64(obsStepped),
		"sim.skip_ratio":                  ratio(float64(obsSkipped), float64(obsStepped+obsSkipped)),
		"sim.horizon_ns":                  perCall(lt.horizon, lt.nHorizon),
		"sim.horizon_hit_ratio":           ratio(float64(lt.nHit), float64(lt.nHorizon)),
		"sim.loop_self_ns":                perCall(lt.loop-lt.timed(), lt.steps),
		"sim.stepped_speedup":             ratio(steppedWall.Seconds(), plainWall.Seconds()),
		"controller.tick_ns":              perCall(lt.tick, lt.nTick),
		"controller.tick_share":           ratio(lt.tick.Seconds(), lt.loop.Seconds()),
		"controller.nextevent_ns":         perCall(lt.nextEvent, lt.nNextEvent),
		"controller.replay_ns":            perCall(lt.replay, lt.nReplay),
		"controller.enqueue_ns":           perCall(lt.enqueue, lt.nEnqueue),
		"controller.enqueue_reject_ratio": ratio(float64(lt.nReject), float64(lt.nEnqueue)),
		"controller.queue_depth_mean":     ratio(float64(lt.queueDepths), float64(lt.nTick)),
		"controller.drain_ns":             perCall(lt.drain, lt.nDrain),
		"dram.rankbusy_ns":                perCall(lt.rankBusy, lt.nRankBusy),
		"dram.rankspan_ns":                perCall(lt.rankSpan, lt.nRankSpan),
		"dram.gate_ns":                    perCall(gate, nGate),
		"dram.nextready_ns":               perCall(nextReady, nNextReady),
		"dram.acts_per_kinst":             ratio(float64(acts)*1000, float64(retired)),
		"mech.rowparams_ns":               perCall(rowParams, nRowParams),
		"cpu.cycle_ns":                    perCall(lt.cycle-lt.enqueue, lt.nCycle),
		"cpu.fetch_stall_ratio":           ratio(float64(fetchStalls), float64(coreCycles)),
		"cpu.skipbound_ns":                perCall(lt.skipBound, lt.nSkipBound),
		"cpu.fastforward_ns":              perCall(lt.fastForward, lt.nFastForward),
		"trace.record_ns":                 perCall(record, nRecords),
		"trace.profile_s":                 profile.Seconds(),
		"alloc.build_s":                   build.Seconds(),
		"snapshot.encode_us":              ratio(encode.Seconds()*1e6, float64(len(cells)*snapshotReps)),
		"snapshot.decode_us":              ratio(decode.Seconds()*1e6, float64(len(cells)*snapshotReps)),
		"snapshot.bytes":                  ratio(float64(snapBytes), float64(len(cells))),
		"obs.overhead_pct":                (ratio(metricsWall.Seconds(), plainWall.Seconds()) - 1) * 100,
		"bench.traced_overhead_pct":       (ratio(lt.loop.Seconds(), plainWall.Seconds()) - 1) * 100,
		"bench.clock_ns":                  clockCost(),
		"runplan.worker_busy_ratio":       0,
		"runplan.cell_wall_max_s":         0,
		"runplan.memo_hit_ratio":          0,
	}
	if w.sweep {
		s, events, err := runSweep(ctx, seed, cells)
		if err != nil {
			return nil, err
		}
		if *ref == "" {
			*ref = s.digest
		}
		rep.check(s.digest == *ref)
		var busy, slowest time.Duration
		var variants, baselines int
		for _, e := range events {
			busy += e.Stats.Wall
			slowest = max(slowest, e.Stats.Wall)
			switch e.Kind {
			case runplan.KindVariant:
				variants++
			case runplan.KindBaseline:
				baselines++
			}
		}
		m["runplan.worker_busy_ratio"] = ratio(busy.Seconds(), float64(sweepJobs())*s.wall.Seconds())
		m["runplan.cell_wall_max_s"] = slowest.Seconds()
		m["runplan.memo_hit_ratio"] = ratio(float64(variants-baselines), float64(variants))
	}
	return m, nil
}

// clockCost is what an empty timed interval reads: the share of every
// per-call figure that is the timer's own.
func clockCost() float64 {
	var d time.Duration
	for i := 0; i < microCalls; i++ {
		t := clock()
		d += clock() - t
	}
	return perCall(d, microCalls)
}

// timed is the loop time spent inside the top-level timers.
func (lt *layerTimes) timed() time.Duration {
	return lt.cycle + lt.tick + lt.drain + lt.rankBusy + lt.horizon + lt.fastForward + lt.replay + lt.rankSpan + lt.probe
}

func perCall(d time.Duration, n int64) float64 { return ratio(float64(d.Nanoseconds()), float64(n)) }

// ratio is a/b, or 0 when b is 0 (the metric does not apply).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// simRun runs cfg through the program's own engine.
func simRun(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
	s, err := sim.NewSim(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run(ctx)
}

// conforms reports whether the traced loop ended in the state sim.Run
// reached: cycle count, retirement, reads and the controller and device
// statistics.
func conforms(rp *replica, res *sim.Result) error {
	var retired int64
	for i, c := range rp.cores {
		retired += c.Retired()
		if c.Retired() != res.Cores[i].Retired {
			return fmt.Errorf("core %d retired %d, sim.Run %d", i, c.Retired(), res.Cores[i].Retired)
		}
	}
	switch {
	case rp.mem != res.MemCycles:
		return fmt.Errorf("MemCycles %d, sim.Run %d", rp.mem, res.MemCycles)
	case retired != res.RetiredInsts:
		return fmt.Errorf("RetiredInsts %d, sim.Run %d", retired, res.RetiredInsts)
	case rp.reads != res.ReadCount:
		return fmt.Errorf("ReadCount %d, sim.Run %d", rp.reads, res.ReadCount)
	case !reflect.DeepEqual(rp.ctrl.Stats(), res.Ctrl):
		return fmt.Errorf("controller.Stats %+v, sim.Run %+v", rp.ctrl.Stats(), res.Ctrl)
	case !reflect.DeepEqual(rp.dev.Stats(), res.Dev):
		return fmt.Errorf("dram.Stats %+v, sim.Run %+v", rp.dev.Stats(), res.Dev)
	}
	return nil
}

// midRunSnapshot reruns cfg with a checkpoint due at cycle `at` and
// returns the snapshot file's bytes as the first write left them.
func midRunSnapshot(ctx context.Context, cfg sim.Config, at int64, scratch string) ([]byte, error) {
	path := filepath.Join(scratch, "mid.ckpt")
	var snap []byte
	var readErr error
	cfg.Checkpoint = &sim.CheckpointConfig{
		Path:         path,
		EveryNCycles: max(at, 1),
		OnWrite: func(int64) {
			if snap == nil && readErr == nil {
				snap, readErr = os.ReadFile(path)
			}
		},
	}
	if _, err := simRun(ctx, cfg); err != nil {
		return nil, err
	}
	if readErr != nil {
		return nil, readErr
	}
	if snap == nil {
		return nil, fmt.Errorf("no mid-run checkpoint was written")
	}
	return snap, nil
}

// timeSnapshot times sim.Restore of the snapshot and
// (*sim.Sim).Checkpoint of the restored state into memory, summed over
// snapshotReps repetitions, and returns the encoded size.
func timeSnapshot(snap []byte, cfg sim.Config) (encode, decode time.Duration, size int64, err error) {
	for i := 0; i < snapshotReps; i++ {
		t := time.Now()
		s, err := sim.Restore(bytes.NewReader(snap), cfg)
		if err != nil {
			return 0, 0, 0, err
		}
		decode += time.Since(t)
		var buf bytes.Buffer
		t = time.Now()
		if err := s.Checkpoint(&buf); err != nil {
			return 0, 0, 0, err
		}
		encode += time.Since(t)
		size = int64(buf.Len())
	}
	return encode, decode, size, nil
}

// timeGates imports the snapshot's device state into a fresh device and
// times its command gates over the addresses the traced run activated,
// and NextReadyAt, at the snapshot's cycle.
func timeGates(snap []byte, cfg sim.Config, addrs []core.Address) (gate time.Duration, nGate int64, next time.Duration, nNext int64, err error) {
	st, err := snapshot.Decode(bytes.NewReader(snap))
	if err != nil {
		return 0, 0, 0, 0, err
	}
	dev, err := dram.New(cfg.DRAM)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if err := dev.ImportState(st.Device); err != nil {
		return 0, 0, 0, 0, err
	}
	now := st.NextCycle
	if len(addrs) > 0 {
		passes := max(1, microCalls/(4*len(addrs)))
		t := time.Now()
		for p := 0; p < passes; p++ {
			for _, a := range addrs {
				t1, _ := dev.EarliestActivate(a, now)
				t2, _ := dev.EarliestRead(a, now)
				t3, _ := dev.EarliestWrite(a, now)
				t4, _ := dev.EarliestPrecharge(a, now)
				sink += t1 + t2 + t3 + t4
			}
		}
		gate, nGate = time.Since(t), int64(4*passes*len(addrs))
	}
	t := time.Now()
	for i := 0; i < microCalls; i++ {
		sink += dev.NextReadyAt(now)
	}
	return gate, nGate, time.Since(t), microCalls, nil
}

// timeRowParams times Device.RowParams over the rows of the activated
// addresses.
func timeRowParams(dev *dram.Device, addrs []core.Address) (time.Duration, int64) {
	if len(addrs) == 0 {
		return 0, 0
	}
	passes := max(1, microCalls/len(addrs))
	t := time.Now()
	for p := 0; p < passes; p++ {
		for _, a := range addrs {
			if _, mcr := dev.RowParams(a.Row); mcr {
				sink++
			}
		}
	}
	return time.Since(t), int64(passes * len(addrs))
}

// timeRecords drains a standalone trace generator on the core's workload
// and seed, repeating short traces until recordMinRecs records.
func timeRecords(name string, seed, insts, baseRow int64) (time.Duration, int64, error) {
	w, err := trace.ByName(name)
	if err != nil {
		return 0, 0, err
	}
	var d time.Duration
	var n int64
	for n < recordMinRecs {
		gen, err := trace.New(w, seed, insts, baseRow)
		if err != nil {
			return 0, 0, err
		}
		before := n
		t := time.Now()
		for {
			rec, ok := gen.Next()
			if !ok {
				break
			}
			sink += rec.Line
			n++
		}
		d += time.Since(t)
		if n == before {
			break
		}
	}
	return d, n, nil
}
