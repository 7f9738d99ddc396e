package sim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// engineResultJSON runs cfg under the given engine with fresh
// observability attachments and renders the Result with the wall clock
// and the engine accounting normalized (both legitimately differ across
// engines); the unnormalized observability snapshot is returned alongside
// for skip-ratio assertions.
func engineResultJSON(t *testing.T, cfg sim.Config, e sim.Engine) ([]byte, obs.Snapshot) {
	t.Helper()
	cfg.Engine = e
	cfg.Metrics = obs.NewRegistry()
	cfg.Trace = obs.NewTracer(ckptTraceCap)
	res, err := sim.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res.Wall = 0
	snap := *res.Obs
	res.Obs.EngineSteppedCycles, res.Obs.EngineSkippedCycles = 0, 0
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return out, snap
}

// TestEngineParity is the tentpole's master correctness pin: for every
// mechanism backend — each with fault injection, metrics and tracing, the
// MCR one additionally with resilience, quarantine and profile
// allocation — and for the anti-starvation and two-channel close-page
// scheduler axes, the event-driven engine must produce a Result
// (observability snapshot included) byte-identical to the stepped
// reference loop, and must actually skip cycles while doing so.
func TestEngineParity(t *testing.T) {
	cfgs := sim.CheckpointConfigs(t)
	// The scheduler axes whose horizon bounds the backend configs do not
	// reach: the anti-starvation cap at two limits (the cycle it engages
	// changes the pass shape, so a quiet window must end there) and two
	// channels under close-page with the cap. A misplaced bound corrupts
	// the stall attribution, which the attached metrics expose.
	golden := parityConfigs(t)
	for _, name := range []string{"starvation", "two_channel_close_starve"} {
		cfgs[name] = golden[name]
	}
	starve50 := golden["starvation"]
	starve50.Ctrl.StarvationLimit = 50
	cfgs["starvation_50"] = starve50
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			want, _ := engineResultJSON(t, cfg, sim.Stepped)
			got, snap := engineResultJSON(t, cfg, sim.EventDriven)
			if !bytes.Equal(got, want) {
				t.Errorf("event-driven Result diverged from stepped reference\n got: %s\nwant: %s", got, want)
			}
			if snap.EngineSkippedCycles == 0 {
				t.Error("event-driven engine skipped no cycles; the parity check is vacuous")
			}
		})
	}
}

// TestEngineCrossCheckpointRestore pins that snapshots carry no engine
// state: a run interrupted under one engine and restored under the other
// still matches the uninterrupted stepped reference byte for byte, in
// both directions.
func TestEngineCrossCheckpointRestore(t *testing.T) {
	cfg := sim.CheckpointConfigs(t)["mcr"]
	want, _ := engineResultJSON(t, cfg, sim.Stepped)
	cases := []struct {
		name          string
		first, second sim.Engine
	}{
		{"stepped_to_event", sim.Stepped, sim.EventDriven},
		{"event_to_stepped", sim.EventDriven, sim.Stepped},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.ckpt")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			icfg := cfg
			icfg.Engine = tc.first
			icfg.Metrics = obs.NewRegistry()
			icfg.Trace = obs.NewTracer(ckptTraceCap)
			icfg.Checkpoint = &sim.CheckpointConfig{
				Path:         path,
				EveryNCycles: 4096,
				Resume:       true,
				OnWrite:      func(int64) { cancel() },
			}
			if _, err := sim.RunContext(ctx, icfg); !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted run: want context.Canceled, got %v", err)
			}
			rcfg := cfg
			rcfg.Checkpoint = &sim.CheckpointConfig{
				Path:         path,
				EveryNCycles: 4096,
				Resume:       true,
				Strict:       true,
			}
			got, _ := engineResultJSON(t, rcfg, tc.second)
			if !bytes.Equal(got, want) {
				t.Errorf("%s restore diverged from uninterrupted stepped run\n got: %s\nwant: %s", tc.name, got, want)
			}
		})
	}
}

// TestEngineSaturatedWorkloadCompletes is the zero-length-skip livelock
// regression: on a memory-saturated workload nearly every skipTarget call
// answers "nothing skippable", and the loop must keep stepping (not spin)
// all the way to a Result identical to the stepped engine's.
func TestEngineSaturatedWorkloadCompletes(t *testing.T) {
	cfg := sim.DefaultConfig("stream")
	cfg.InstsPerCore = 60_000
	cfg.Seed = 5
	want, _ := engineResultJSON(t, cfg, sim.Stepped)
	got, _ := engineResultJSON(t, cfg, sim.EventDriven)
	if !bytes.Equal(got, want) {
		t.Errorf("saturated-workload Result diverged\n got: %s\nwant: %s", got, want)
	}
}

// TestSkipRatioSmoke asserts the engine earns its keep where it should:
// on the low-MPKI idle workload, well over half the simulated cycles must
// be skipped rather than stepped.
func TestSkipRatioSmoke(t *testing.T) {
	cfg := sim.DefaultConfig("idle")
	cfg.InstsPerCore = 200_000
	cfg.Seed = 2
	cfg.Metrics = obs.NewRegistry()
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r := res.Obs.SkipRatio(); r <= 0.5 {
		t.Errorf("skip ratio %.3f on the idle workload, want > 0.5 (stepped %d, skipped %d)",
			r, res.Obs.EngineSteppedCycles, res.Obs.EngineSkippedCycles)
	}
}

// TestParseEngine pins the CLI engine names and that a bad one lists the
// valid choices.
func TestParseEngine(t *testing.T) {
	for _, e := range []sim.Engine{sim.Stepped, sim.EventDriven} {
		if got, err := sim.ParseEngine(e.String()); err != nil || got != e {
			t.Errorf("ParseEngine(%q) = %v, %v", e, got, err)
		}
	}
	_, err := sim.ParseEngine("warp")
	if err == nil {
		t.Fatal("bad engine accepted")
	}
	for _, want := range []string{"warp", "stepped", "event-driven"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error must name the input and the valid engines: %v", err)
		}
	}
}
