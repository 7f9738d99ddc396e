package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/alloc"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The traced loop is the benchmark's own copy of the default
// (event-driven) engine's cycle loop in internal/sim: the same calls into
// cpu, controller and dram in the same order, each wrapped in a timer.
// The layer functions it times are the program's own, so a change to any
// of them shows here; a change to the engine's private policy does not,
// which is why sim.steps and sim.skip_ratio come from the program's obs
// counters instead. The conformance test pins the copy's end state to
// sim.Run's.

// epoch anchors clock.
var epoch = time.Now()

// clock reads the monotonic clock alone: half the cost of time.Now, which
// also reads the wall clock.
func clock() time.Duration { return time.Since(epoch) }

// maxRecordedActs caps the activated addresses the device hook keeps for
// the dram.gate_ns and mech.rowparams_ns micro-timings.
const maxRecordedActs = 1 << 14

// layerTimes accumulates the traced loop's per-call timers and counts.
// The top-level timers (cycle, tick, drain, rankBusy, horizon,
// fastForward, replay, rankSpan, probe) partition the timed part of the
// loop; enqueue nests in cycle, nextEvent and skipBound in horizon.
type layerTimes struct {
	cycle, enqueue, tick, drain, rankBusy      time.Duration
	horizon, nextEvent, skipBound              time.Duration
	fastForward, replay, rankSpan, probe, loop time.Duration

	nCycle, nEnqueue, nReject, nTick, nDrain, nRankBusy  int64
	nHorizon, nHit, nNextEvent, nSkipBound               int64
	nFastForward, nReplay, nRankSpan, steps, queueDepths int64
}

// timedMemory is the cpu.MemorySystem the traced cores dispatch through:
// the controller's Enqueue* calls, timed and counted.
type timedMemory struct {
	ctrl *controller.Controller
	lt   *layerTimes
}

func (m *timedMemory) EnqueueRead(line int64, coreID int, now int64) (int64, bool) {
	t := clock()
	id, ok := m.ctrl.EnqueueRead(line, coreID, now)
	m.lt.enqueue += clock() - t
	m.count(ok)
	return id, ok
}

func (m *timedMemory) EnqueueWrite(line int64, coreID int, now int64) bool {
	t := clock()
	ok := m.ctrl.EnqueueWrite(line, coreID, now)
	m.lt.enqueue += clock() - t
	m.count(ok)
	return ok
}

func (m *timedMemory) count(ok bool) {
	m.lt.nEnqueue++
	if !ok {
		m.lt.nReject++
	}
}

// actRecorder is the dram.Hook that keeps the first activated addresses.
type actRecorder struct{ acts []core.Address }

func (h *actRecorder) Activated(a core.Address, now int64) {
	if len(h.acts) < maxRecordedActs {
		h.acts = append(h.acts, a)
	}
}
func (h *actRecorder) Precharged(core.Address, int, int, int64) {}
func (h *actRecorder) Refreshed(int, int, []int, int, int64)    {}

// replica is one assembled simulation driven by the traced loop.
type replica struct {
	cfg   sim.Config
	geom  core.Geometry
	dev   *dram.Device
	ctrl  *controller.Controller
	cores []*cpu.Core
	hook  *actRecorder
	lt    *layerTimes

	// profile and build time the page-allocation set-up (trace.Profile,
	// alloc.ProfileBased); both are 0 without allocation.
	profile, build time.Duration

	// Loop state. The latency histogram and the rank power accounting
	// feed nothing the benchmark reports; they are kept so the loop does
	// the engine's per-cycle work and sim.loop_self_ns stays comparable.
	idleStreak            []int
	pending               completions
	hist                  *sim.LatencyHistogram
	activeCyc, standbyCyc int64
	pdCyc, reads          int64
	cpuCycle              int64
	mem                   int64
}

// newReplica assembles cfg through the layers' public constructors, as
// sim.NewSim does, with its timers adding into lt. An obs registry in cfg.Metrics is attached to the
// device and controller, so a test can compare the counters too.
// Configurations that attach integrity, faults, resilience, a tracer,
// checkpoints or warm-up are refused: the benchmark's workloads use none
// of them.
func newReplica(cfg sim.Config, lt *layerTimes) (*replica, error) {
	if cfg.Integrity != nil || cfg.Fault != nil || cfg.Resilience != nil ||
		cfg.Trace != nil || cfg.Checkpoint != nil || cfg.WarmupInsts > 0 || cfg.AllocRatio4 > 0 || cfg.AllocRatio2 > 0 {
		return nil, fmt.Errorf("traced loop: configuration uses a feature the replica does not model")
	}
	dev, err := dram.New(cfg.DRAM)
	if err != nil {
		return nil, err
	}
	r := &replica{cfg: cfg, geom: dev.Config().Geom, dev: dev, hook: &actRecorder{}, lt: lt, hist: sim.NewLatencyHistogram()}
	rows, err := r.allocation()
	if err != nil {
		return nil, err
	}
	if r.ctrl, err = controller.New(cfg.Ctrl, dev, rows); err != nil {
		return nil, err
	}
	if cfg.Metrics != nil {
		cfg.Metrics.EnsureBanks(r.geom.Channels * r.geom.Ranks * r.geom.Banks)
		dev.SetObservability(cfg.Metrics, nil)
		r.ctrl.SetObservability(cfg.Metrics, nil)
	}
	dev.SetHook(r.hook)
	mem := &timedMemory{ctrl: r.ctrl, lt: lt}
	for i, name := range cfg.Workloads {
		w, err := trace.ByName(name)
		if err != nil {
			return nil, err
		}
		gen, err := trace.New(w, coreSeed(cfg.Seed, i), cfg.InstsPerCore, r.baseRow(i))
		if err != nil {
			return nil, err
		}
		c, err := cpu.New(cfg.CPU, i, gen, mem, cfg.InstsPerCore)
		if err != nil {
			return nil, err
		}
		r.cores = append(r.cores, c)
	}
	r.idleStreak = make([]int, r.geom.Channels*r.geom.Ranks)
	return r, nil
}

// coreSeed and baseRow derive each core's trace seed and address-space
// slice exactly as internal/sim does.
func coreSeed(seed int64, coreID int) int64 { return seed*1_000_003 + int64(coreID)*7_919 }

func (r *replica) baseRow(coreID int) int64 {
	if r.cfg.SharedFootprint {
		return 0
	}
	return int64(coreID) * (r.geom.TotalRows() / int64(len(r.cfg.Workloads)))
}

// allocation builds the row map as internal/sim does: the identity map
// without page allocation, otherwise a trace.Profile pass per core
// folded into per-bank row counts and handed to alloc.ProfileBased.
func (r *replica) allocation() (*alloc.RowMap, error) {
	if r.cfg.AllocRatio == 0 || !r.dev.Config().EffectiveLayout().Enabled() {
		return alloc.Identity(r.geom), nil
	}
	mapper, err := controller.NewAddressMapper(r.geom, r.cfg.Ctrl.Mapping)
	if err != nil {
		return nil, err
	}
	counts := make(map[int]map[int]int64)
	for i, name := range r.cfg.Workloads {
		w, err := trace.ByName(name)
		if err != nil {
			return nil, err
		}
		t := clock()
		prof, err := trace.Profile(w, coreSeed(r.cfg.Seed, i), r.cfg.InstsPerCore, r.baseRow(i))
		r.profile += clock() - t
		if err != nil {
			return nil, err
		}
		for traceRow, n := range prof {
			a := mapper.Decode(traceRow * trace.LinesPerRow)
			bid := a.BankID(r.geom)
			if counts[bid] == nil {
				counts[bid] = make(map[int]int64)
			}
			counts[bid][a.Row] += n
		}
	}
	t := clock()
	rows, err := alloc.ProfileBased(r.geom, r.dev.Generator(), counts, r.cfg.AllocRatio)
	r.build = clock() - t
	return rows, err
}

// run drives the loop to completion and records its wall time.
func (r *replica) run() error {
	const safetyCap = int64(4) << 32
	start := clock()
	var mem int64
	for ; !r.step(mem); mem++ {
		if mem > safetyCap {
			return fmt.Errorf("traced loop: exceeded %d memory cycles without finishing", safetyCap)
		}
		if t := r.horizon(mem); t > mem+1 {
			r.skip(mem, t-mem-1)
			mem = t - 1
		}
	}
	r.lt.loop += clock() - start
	r.mem = mem
	return nil
}

// drained reports whether every core retired its trace and nothing is
// left in flight.
func (r *replica) drained() bool {
	for _, c := range r.cores {
		if !c.Done() {
			return false
		}
	}
	rd, wr := r.ctrl.Pending()
	return rd == 0 && wr == 0 && len(r.pending) == 0
}

// step runs one memory cycle and reports whether the run has drained.
func (r *replica) step(mem int64) bool {
	lt := r.lt
	for len(r.pending) > 0 && r.pending[0].DoneAt <= mem {
		comp := r.pending.pop()
		r.cores[comp.CoreID].Complete(comp.ID)
	}
	if r.drained() {
		return true
	}
	for i := 0; i < core.CPUCyclesPerMemCycle; i++ {
		for _, c := range r.cores {
			t := clock()
			c.Cycle(r.cpuCycle, mem)
			lt.cycle += clock() - t
			lt.nCycle++
		}
		r.cpuCycle++
	}
	t := clock()
	r.ctrl.Tick(mem)
	lt.tick += clock() - t
	lt.nTick++

	t = clock()
	rd, wr := r.ctrl.Pending()
	lt.queueDepths += int64(rd + wr)
	lt.probe += clock() - t

	t = clock()
	done := r.ctrl.DrainCompletions()
	lt.drain += clock() - t
	lt.nDrain++
	for _, comp := range done {
		r.reads++
		r.hist.Observe(comp.DoneAt - comp.ArriveAt)
		if comp.DoneAt <= mem {
			r.cores[comp.CoreID].Complete(comp.ID)
		} else {
			r.pending.push(comp)
		}
	}
	for ch := 0; ch < r.geom.Channels; ch++ {
		for rk := 0; rk < r.geom.Ranks; rk++ {
			idx := ch*r.geom.Ranks + rk
			t := clock()
			busy := r.dev.RankBusy(ch, rk, mem)
			lt.rankBusy += clock() - t
			lt.nRankBusy++
			switch {
			case busy:
				r.idleStreak[idx] = 0
				r.activeCyc++
			case r.cfg.PowerDownCycles > 0 && r.idleStreak[idx] >= r.cfg.PowerDownCycles:
				r.pdCyc++
			default:
				r.idleStreak[idx]++
				r.standbyCyc++
			}
		}
	}
	lt.steps++
	return false
}

// horizon times one skip-horizon computation.
func (r *replica) horizon(mem int64) int64 {
	t := clock()
	target := r.skipTarget(mem)
	r.lt.horizon += clock() - t
	r.lt.nHorizon++
	if target > mem+1 {
		r.lt.nHit++
	}
	return target
}

// skipTarget returns the next cycle that must be stepped: the earliest of
// the 4096-cycle poll boundary, the next pending completion, the
// controller's next event and each live core's quiescence bound.
func (r *replica) skipTarget(mem int64) int64 {
	lt := r.lt
	if r.drained() {
		return mem + 1
	}
	at := ((mem >> 12) + 1) << 12
	if len(r.pending) > 0 {
		at = min(at, r.pending[0].DoneAt)
	}
	t := clock()
	ev := r.ctrl.NextEventAt(mem)
	lt.nextEvent += clock() - t
	lt.nNextEvent++
	at = min(at, ev)
	for _, c := range r.cores {
		if c.Done() {
			continue
		}
		t := clock()
		b := c.SkipBound()
		lt.skipBound += clock() - t
		lt.nSkipBound++
		if b == 0 {
			return mem + 1
		}
		if b < math.MaxInt64/8 {
			at = min(at, mem+1+b/int64(core.CPUCyclesPerMemCycle))
		}
	}
	return at
}

// skip replays the inert span mem+1..mem+n in closed form.
func (r *replica) skip(mem, n int64) {
	lt := r.lt
	cpuSpan := n * int64(core.CPUCyclesPerMemCycle)
	for _, c := range r.cores {
		if !c.Done() {
			t := clock()
			c.FastForward(r.cpuCycle, cpuSpan)
			lt.fastForward += clock() - t
			lt.nFastForward++
		}
	}
	r.cpuCycle += cpuSpan
	t := clock()
	r.ctrl.ReplaySkipped(mem, n)
	lt.replay += clock() - t
	lt.nReplay++
	from := mem + 1
	for ch := 0; ch < r.geom.Channels; ch++ {
		for rk := 0; rk < r.geom.Ranks; rk++ {
			idx := ch*r.geom.Ranks + rk
			t := clock()
			busyUntil, anyOpen := r.dev.RankSpanState(ch, rk)
			lt.rankSpan += clock() - t
			lt.nRankSpan++
			if anyOpen {
				r.idleStreak[idx] = 0
				r.activeCyc += n
				continue
			}
			busy := min(max(busyUntil-from, 0), n)
			r.activeCyc += busy
			if busy > 0 {
				r.idleStreak[idx] = 0
			}
			idle := n - busy
			if idle == 0 {
				continue
			}
			if pd := int64(r.cfg.PowerDownCycles); pd > 0 {
				sb := min(max(pd-int64(r.idleStreak[idx]), 0), idle)
				r.standbyCyc += sb
				r.pdCyc += idle - sb
				r.idleStreak[idx] += int(sb)
			} else {
				r.standbyCyc += idle
				r.idleStreak[idx] += int(idle)
			}
		}
	}
}

// completions is a min-heap of controller completions by due cycle.
type completions []controller.Completion

func (q *completions) push(c controller.Completion) {
	*q = append(*q, c)
	h := *q
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].DoneAt <= h[i].DoneAt {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func (q *completions) pop() controller.Completion {
	h := *q
	n := len(h) - 1
	top := h[0]
	h[0] = h[n]
	h = h[:n]
	*q = h
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && h[r].DoneAt < h[m].DoneAt {
			m = r
		}
		if h[i].DoneAt <= h[m].DoneAt {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}
