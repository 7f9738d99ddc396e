package sim

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/mcr"
)

// CheckpointConfigs covers all five mechanism backends, each with fault
// injection enabled (so the integrity checker and its violation state
// ride along); the MCR config additionally runs the resilience policy
// with governor and quarantine, plus profile-based allocation. It is
// shared by the checkpoint and engine parity suites and the horizon
// test, hence exported to the external test package.
func CheckpointConfigs(t *testing.T) map[string]Config {
	t.Helper()
	base := func(workload string) Config {
		cfg := DefaultConfig(workload)
		cfg.InstsPerCore = 60_000
		cfg.Seed = 3
		cfg.Fault = &fault.Config{Seed: 3, WeakFraction: 0.05, TailMinFrac: 0.0005, TailMaxFrac: 0.005}
		return cfg
	}
	mode44, err := mcr.NewMode(4, 4, 1.0)
	if err != nil {
		t.Fatal(err)
	}

	cfgs := make(map[string]Config)

	c := base("stream")
	c.DRAM = dram.DefaultConfig(mode44)
	c.AllocRatio = 0.5
	c.Resilience = &ResilienceConfig{DowngradeAfter: 2, Quarantine: true}
	cfgs["mcr"] = c

	c = base("stream")
	c.DRAM = dram.DefaultConfig(mcr.Off())
	tl := dram.DefaultTLConfig()
	c.DRAM.TL = &tl
	cfgs["tldram"] = c

	c = base("mummer")
	c.DRAM = dram.DefaultConfig(mcr.Off())
	nu := dram.DefaultNUATConfig()
	c.DRAM.NUAT = &nu
	cfgs["nuat"] = c

	c = base("stream")
	c.DRAM = dram.DefaultConfig(mcr.Off())
	cr := dram.DefaultCROWConfig()
	c.DRAM.CROW = &cr
	cfgs["crow"] = c

	c = base("mummer")
	c.DRAM = dram.DefaultConfig(mcr.Off())
	cl := dram.DefaultCLRConfig()
	c.DRAM.CLR = &cl
	cfgs["clr"] = c

	return cfgs
}

// referenceSkipTarget is skipTarget without the cost ordering: under the
// same warm-up and terminal guards, the plain minimum over all four
// candidates — poll boundary, pending completion head, controller next
// event and every live core's quiescence bound — each computed in full.
func referenceSkipTarget(ls *loopState, mem int64) int64 {
	if !ls.warmed {
		return mem + 1
	}
	allDone := true
	for _, c := range ls.cores {
		if !c.Done() {
			allDone = false
		}
	}
	if r, w := ls.ctrl.Pending(); allDone && r == 0 && w == 0 && len(ls.pending) == 0 {
		return mem + 1
	}
	cands := []int64{((mem >> 12) + 1) << 12, ls.ctrl.NextEventAt(mem)}
	if len(ls.pending) > 0 {
		cands = append(cands, ls.pending[0].DoneAt)
	}
	for _, c := range ls.cores {
		if c.Done() {
			continue
		}
		switch b := c.SkipBound(); {
		case b == 0:
			cands = append(cands, mem+1)
		case b < math.MaxInt64/8:
			cands = append(cands, mem+1+b/int64(core.CPUCyclesPerMemCycle))
		}
	}
	t := cands[0]
	for _, c := range cands[1:] {
		t = min(t, c)
	}
	return t
}

// TestSkipTargetMatchesReference pins that ordering the horizon by cost
// never changes it: at every step of the engine-parity configs plus a
// quad-core mix, the cost-ordered skipTarget must equal the unordered
// reference minimum. The loop mirrors run's event-driven path without
// the backoff, so the horizon is computed at every step.
func TestSkipTargetMatchesReference(t *testing.T) {
	cfgs := CheckpointConfigs(t)
	quad := DefaultConfig("tigr")
	quad.Workloads = []string{"tigr", "comm2", "black", "stream"}
	quad.DRAM = dram.DefaultConfig(mcr.Off())
	quad.DRAM.Geom = core.MultiCoreGeometry()
	quad.InstsPerCore = 30_000
	quad.Seed = 3
	cfgs["quad"] = quad
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			s, err := NewSim(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var steps, skips int
			for mem := int64(0); ; mem++ {
				if mem&0xFFF == 0 && s.resil != nil {
					s.resil.poll(mem)
				}
				if s.ls.step(mem) {
					break
				}
				steps++
				got, want := s.ls.skipTarget(mem), referenceSkipTarget(s.ls, mem)
				if got != want {
					t.Fatalf("cycle %d: skipTarget %d, unordered reference %d", mem, got, want)
				}
				if got > mem+1 {
					skips++
					s.ls.applySkip(mem, got-mem-1)
					mem = got - 1
				}
			}
			if skips == 0 {
				t.Fatalf("no skips in %d steps; the comparison is vacuous", steps)
			}
		})
	}
}
