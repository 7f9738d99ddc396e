package sim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/mcr"
	"repro/internal/obs"
	"repro/internal/sim"
)

// fuzzWorkloads are the single-core workloads a fuzz case picks from; an
// index past the end selects the 4-core mix.
var fuzzWorkloads = []string{"stream", "mummer", "tigr", "comm2", "leslie", "black", "idle"}

// fuzzModes are the MCR modes a fuzz case picks from (MCR backend only).
var fuzzModes = []mcr.Mode{
	mcr.Off(),
	{K: 2, M: 2, Region: 1.0},
	{K: 4, M: 4, Region: 1.0},
	{K: 4, M: 4, Region: 0.5},
	{K: 2, M: 1, Region: 0.5},
}

// Flag bits of fuzzCase.flags.
const (
	fzFCFS = 1 << iota
	fzClosePage
	fzPermutation
	fzTwoChannels
	fzMetrics
	fzAlloc
	fzResilience
)

// fuzzCase is the decoded form of one FuzzEngineParity input, one byte
// per field in declaration order; missing bytes read as zero.
type fuzzCase struct {
	workload, mode, backend, flags uint8
	starve                         uint8 // StarvationLimit; 0 disables the cap
	watermark                      uint8 // 0: defaults; else high 3..31, low high/3
	faultSeed                      uint8 // 0: no fault injection
	ckpt                           uint8 // checkpoint interval, in 256-cycle units
	seed                           uint8
}

func (f fuzzCase) encode() []byte {
	return []byte{f.workload, f.mode, f.backend, f.flags, f.starve, f.watermark, f.faultSeed, f.ckpt, f.seed}
}

func decodeFuzzCase(b []byte) fuzzCase {
	var v [9]uint8
	copy(v[:], b)
	return fuzzCase{v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7], v[8]}
}

// config builds the simulation the case describes, with the checkpoint
// interval it asks for.
func (f fuzzCase) config() (sim.Config, int64) {
	w := int(f.workload) % (len(fuzzWorkloads) + 1)
	var cfg sim.Config
	if w == len(fuzzWorkloads) {
		cfg = sim.DefaultConfig("tigr")
		cfg.Workloads = []string{"tigr", "comm2", "black", "stream"}
		cfg.DRAM = dram.DefaultConfig(mcr.Off())
		cfg.DRAM.Geom = core.MultiCoreGeometry()
	} else {
		cfg = sim.DefaultConfig(fuzzWorkloads[w])
	}
	cfg.InstsPerCore = 60_000
	cfg.Seed = 1 + int64(f.seed)
	geom := cfg.DRAM.Geom
	switch f.backend % 5 {
	case 0:
		cfg.DRAM = dram.DefaultConfig(fuzzModes[int(f.mode)%len(fuzzModes)])
	case 1:
		tl := dram.DefaultTLConfig()
		cfg.DRAM.TL = &tl
	case 2:
		nu := dram.DefaultNUATConfig()
		cfg.DRAM.NUAT = &nu
	case 3:
		cr := dram.DefaultCROWConfig()
		cfg.DRAM.CROW = &cr
	case 4:
		cl := dram.DefaultCLRConfig()
		cfg.DRAM.CLR = &cl
	}
	cfg.DRAM.Geom = geom
	if f.flags&fzTwoChannels != 0 {
		cfg.DRAM.Geom.Channels = 2
	}
	if f.flags&fzFCFS != 0 {
		cfg.Ctrl.Scheduler = controller.FCFS
	}
	if f.flags&fzClosePage != 0 {
		cfg.Ctrl.RowPolicy = controller.ClosePage
	}
	if f.flags&fzPermutation != 0 {
		cfg.Ctrl.Mapping = controller.PermutationInterleave
	}
	if f.flags&fzAlloc != 0 {
		cfg.AllocRatio = 0.5
	}
	if f.flags&fzResilience != 0 {
		cfg.Resilience = &sim.ResilienceConfig{DowngradeAfter: 2, Quarantine: true}
	}
	cfg.Ctrl.StarvationLimit = int64(f.starve)
	if f.watermark != 0 {
		cfg.Ctrl.HighWatermark = 3 + int(f.watermark)%29
		cfg.Ctrl.LowWatermark = cfg.Ctrl.HighWatermark / 3
	}
	if f.faultSeed != 0 {
		cfg.Fault = &fault.Config{Seed: int64(f.faultSeed), WeakFraction: 0.05, TailMinFrac: 0.0005, TailMaxFrac: 0.005}
	}
	return cfg, 1 + 256*int64(f.ckpt)
}

// runVariant runs cfg under the given engine — interrupted at its first
// checkpoint and restored when every > 0 — and renders the Result with
// the wall clock and the engine counters zeroed.
func runVariant(t *testing.T, cfg sim.Config, e sim.Engine, metrics bool, every int64) []byte {
	t.Helper()
	cfg.Engine = e
	attach := func(c *sim.Config) {
		if metrics {
			c.Metrics = obs.NewRegistry()
			c.Trace = obs.NewTracer(ckptTraceCap)
		}
	}
	attach(&cfg)
	var res *sim.Result
	var err error
	if every > 0 {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		ctx, cancel := context.WithCancel(context.Background())
		icfg := cfg
		icfg.Checkpoint = &sim.CheckpointConfig{Path: path, EveryNCycles: every, Resume: true, OnWrite: func(int64) { cancel() }}
		res, err = sim.RunContext(ctx, icfg)
		cancel()
		if errors.Is(err, context.Canceled) {
			rcfg := cfg
			attach(&rcfg)
			rcfg.Checkpoint = &sim.CheckpointConfig{Path: path, EveryNCycles: every, Resume: true, Strict: true}
			res, err = sim.Run(rcfg)
		}
	} else {
		res, err = sim.Run(cfg)
	}
	if err != nil {
		t.Fatalf("%s run: %v", e, err)
	}
	res.Wall = 0
	if res.Obs != nil {
		res.Obs.EngineSteppedCycles, res.Obs.EngineSkippedCycles = 0, 0
	}
	out, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// FuzzEngineParity decodes bytes into a configuration — workload or
// 4-core mix, MCR mode and mechanism backend, scheduler, row policy,
// starvation limit and mapping, channels, watermarks and fault seed,
// metrics on or off, and a checkpoint cycle — and requires three runs to
// agree byte for byte: the stepped reference, the event-driven engine,
// and the event-driven engine interrupted at the checkpoint and
// restored. Only configurations the simulator rejects are skipped; a
// divergence is an engine bug.
func FuzzEngineParity(f *testing.F) {
	wl := func(name string) uint8 {
		for i, n := range fuzzWorkloads {
			if n == name {
				return uint8(i)
			}
		}
		f.Fatalf("unknown fuzz workload %q", name)
		return 0
	}
	quad := uint8(len(fuzzWorkloads))
	seeds := []fuzzCase{
		// The checkpoint configs: every backend with fault injection; MCR
		// with resilience and allocation.
		{workload: wl("stream"), mode: 2, flags: fzMetrics | fzAlloc | fzResilience, faultSeed: 3, ckpt: 8, seed: 2},
		{workload: wl("stream"), backend: 1, flags: fzMetrics, faultSeed: 3, ckpt: 8, seed: 2},
		{workload: wl("mummer"), backend: 2, flags: fzMetrics, faultSeed: 3, ckpt: 8, seed: 2},
		{workload: wl("stream"), backend: 3, flags: fzMetrics, faultSeed: 3, ckpt: 8, seed: 2},
		{workload: wl("mummer"), backend: 4, flags: fzMetrics, faultSeed: 3, ckpt: 8, seed: 2},
		// The golden scheduler axes.
		{workload: wl("comm2"), mode: 2, flags: fzFCFS | fzMetrics, ckpt: 4, seed: 2},
		{workload: wl("tigr"), mode: 1, flags: fzClosePage | fzMetrics, ckpt: 4, seed: 2},
		{workload: wl("mummer"), starve: 150, flags: fzMetrics, ckpt: 4, seed: 2},
		{workload: wl("mummer"), starve: 50, ckpt: 20, seed: 2},
		{workload: wl("leslie"), mode: 2, flags: fzTwoChannels | fzMetrics, ckpt: 4, seed: 2},
		{workload: wl("tigr"), flags: fzPermutation, ckpt: 4, seed: 2},
		{workload: wl("stream"), mode: 1, watermark: 3, flags: fzMetrics, ckpt: 4, seed: 2},
		{workload: quad, mode: 2, flags: fzAlloc | fzMetrics, ckpt: 40, seed: 2},
		{workload: wl("leslie"), flags: fzTwoChannels | fzClosePage | fzMetrics, starve: 150, ckpt: 4, seed: 2},
		{workload: wl("idle"), ckpt: 8, seed: 1},
	}
	for _, s := range seeds {
		f.Add(s.encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fc := decodeFuzzCase(data)
		cfg, every := fc.config()
		if _, err := sim.NewSim(cfg); err != nil {
			t.Skipf("configuration rejected: %v", err)
		}
		metrics := fc.flags&fzMetrics != 0
		want := runVariant(t, cfg, sim.Stepped, metrics, 0)
		if got := runVariant(t, cfg, sim.EventDriven, metrics, 0); !bytes.Equal(got, want) {
			t.Fatalf("event-driven Result diverged from stepped (case %+v)\n got: %s\nwant: %s", fc, got, want)
		}
		if got := runVariant(t, cfg, sim.EventDriven, metrics, every); !bytes.Equal(got, want) {
			t.Fatalf("event-driven Result restored at checkpoint interval %d diverged from stepped (case %+v)\n got: %s\nwant: %s", every, fc, got, want)
		}
	})
}
