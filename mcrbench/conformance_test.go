package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestReplicaConformance pins the traced loop to the program: on every
// workload's cells and on two seeds, its end state must equal sim.Run's,
// and so must the obs counters both attach (the stall attribution among
// them, which only the skip replay keeps right). Without this the
// per-layer numbers could describe a different program.
func TestReplicaConformance(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []int64{defaultSeed, 2} {
			t.Run(fmt.Sprintf("%s/seed%d", w.name, seed), func(t *testing.T) {
				cells, err := w.cells(seed)
				if err != nil {
					t.Fatal(err)
				}
				for i, cfg := range cells {
					scfg := cfg
					scfg.Metrics = obs.NewRegistry()
					res, err := simRun(context.Background(), scfg)
					if err != nil {
						t.Fatal(err)
					}
					rcfg := cfg
					rcfg.Metrics = obs.NewRegistry()
					rp, err := newReplica(rcfg, &layerTimes{})
					if err != nil {
						t.Fatal(err)
					}
					if err := rp.run(); err != nil {
						t.Fatal(err)
					}
					if err := conforms(rp, res); err != nil {
						t.Errorf("cell %d: %v", i, err)
					}
					// The engine pushes its cycle accounting into the
					// registry only when the run finishes.
					want := *res.Obs
					want.EngineSteppedCycles, want.EngineSkippedCycles = 0, 0
					if got := rcfg.Metrics.Snapshot(); !reflect.DeepEqual(got, &want) {
						t.Errorf("cell %d: obs counters differ:\n traced loop %+v\n sim.Run     %+v", i, got, &want)
					}
				}
			})
		}
	}
}

// TestFig11CellsMatchSweep checks that fig11Cells are the simulations
// experiments.Fig11 runs: the reductions computed from the cells' own
// results must equal the sweep's points.
func TestFig11CellsMatchSweep(t *testing.T) {
	cells, err := fig11Cells(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := experiments.Fig11(experiments.Options{Insts: sweepInsts, Seed: defaultSeed, Jobs: 1}, sweepWorkloads)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*sim.Result, len(cells))
	for i, cfg := range cells {
		if results[i], err = simRun(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	}
	perWorkload := len(cells) / len(sweepWorkloads)
	if len(sw.Points) != len(cells)-len(sweepWorkloads) {
		t.Fatalf("sweep has %d points, cells imply %d", len(sw.Points), len(cells)-len(sweepWorkloads))
	}
	for i, p := range sw.Points {
		wi := i / (perWorkload - 1)
		base, run := results[wi*perWorkload], results[wi*perWorkload+1+i%(perWorkload-1)]
		if p.Workload != sweepWorkloads[wi] {
			t.Fatalf("point %d is %s, want %s", i, p.Workload, sweepWorkloads[wi])
		}
		want := (float64(base.ExecCPUCycles) - float64(run.ExecCPUCycles)) / float64(base.ExecCPUCycles) * 100
		if math.Abs(p.ExecTime-want) > 1e-9 {
			t.Errorf("point %d (%s %s): exec-time reduction %v, cells give %v", i, p.Workload, p.Config, p.ExecTime, want)
		}
	}
}

// TestPinnedDigests checks each workload's outputs on the default seed
// against digests.json, the reference the end-to-end pass enforces.
func TestPinnedDigests(t *testing.T) {
	pinned, err := pinnedDigests()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, w := range workloads {
		cells, err := w.cells(defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		var s sample
		if w.sweep {
			s, _, err = runSweep(ctx, defaultSeed, cells)
		} else {
			s, err = runCells(ctx, cells)
		}
		if err != nil {
			t.Fatal(err)
		}
		if s.digest != pinned[w.name] {
			t.Errorf("%s: outputs hash to %s, digests.json pins %s", w.name, s.digest, pinned[w.name])
		}
	}
}
