package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/runplan"
	"repro/internal/sim"
)

// defaultSeed is the seed whose outputs are pinned in digests.json.
const defaultSeed = 1

// minTimedRuns is the fewest timed repetitions a pass makes, however
// short --seconds is.
const minTimedRuns = 3

// setupReps is how many set-ups each timed run samples for setup_s: its
// own and setupReps-1 more of the same cells, each from a collected heap.
// Set-up is short, so one sample per run would leave setup_s noisy.
const setupReps = 5

//go:embed digests.json
var digestsJSON []byte

// pinnedDigests maps a workload to the digest of its outputs on
// defaultSeed: digestResults of its runs, or for the sweep the digest of
// its points and per-config averages.
func pinnedDigests() (map[string]string, error) {
	var m map[string]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return m, nil
}

// report is one pass's outcome: per-metric samples (end-to-end pass) or
// per-round values (traced pass), the output checks made and failed, and
// the untimed warm-up with the digest of its outputs.
type report struct {
	samples   map[string][]float64
	attempted int
	failed    int
	warmup    time.Duration
	digest    string
}

func newReport() *report { return &report{samples: map[string][]float64{}} }

// check counts one output check.
func (r *report) check(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

func (r *report) add(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

// sample is one timed end-to-end run.
type sample struct {
	wall, setup time.Duration
	memCycles   int64
	simWall     time.Duration // simulation phase only (cycles per second)
	allocBytes  uint64
	digest      string
}

// endToEnd runs the untraced pass: one untimed warm-up, then timed runs
// back to back (a closed loop with one client) until seconds have passed.
// Every run's outputs must equal the warm-up's and, on defaultSeed, the
// pinned digest.
func endToEnd(ctx context.Context, w workload, seed int64, seconds time.Duration) (*report, error) {
	cells, err := w.cells(seed)
	if err != nil {
		return nil, err
	}
	pinned := ""
	if seed == defaultSeed {
		digests, err := pinnedDigests()
		if err != nil {
			return nil, err
		}
		if pinned = digests[w.name]; pinned == "" {
			return nil, fmt.Errorf("digests.json has no digest for %s", w.name)
		}
	}
	once := func() (sample, error) {
		if w.sweep {
			s, _, err := runSweep(ctx, seed, cells)
			return s, err
		}
		return runCells(ctx, cells)
	}
	rep := newReport()
	warm, err := once()
	if err != nil {
		return nil, fmt.Errorf("warm-up run: %w", err)
	}
	rep.warmup, rep.digest = warm.wall, warm.digest
	start := time.Now()
	for n := 0; n < minTimedRuns || time.Since(start) < seconds; n++ {
		s, err := once()
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			rep.check(false)
			continue
		}
		rep.check(s.digest == warm.digest && (pinned == "" || s.digest == pinned))
		rep.add("wall_s", s.wall.Seconds())
		rep.add("setup_s", s.setup.Seconds())
		for i := 1; i < setupReps; i++ {
			heapAllocated()
			d, err := setupTime(cells)
			if err != nil {
				return nil, err
			}
			rep.add("setup_s", d.Seconds())
		}
		rep.add("mcycles_per_s", float64(s.memCycles)/s.simWall.Seconds()/1e6)
		rep.add("alloc_mb", float64(s.allocBytes)/1e6)
	}
	if len(rep.samples["wall_s"]) == 0 {
		return nil, fmt.Errorf("every timed run failed")
	}
	return rep, nil
}

// runCells runs each cell through sim.NewSim and (*sim.Sim).Run with
// tracing and obs off, timing set-up (NewSim) and the whole run.
func runCells(ctx context.Context, cells []sim.Config) (sample, error) {
	var s sample
	var results []*sim.Result
	heap := heapAllocated()
	for _, cfg := range cells {
		start := time.Now()
		sm, err := sim.NewSim(cfg)
		if err != nil {
			return s, err
		}
		s.setup += time.Since(start)
		res, err := sm.Run(ctx)
		if err != nil {
			return s, err
		}
		s.wall += time.Since(start)
		s.simWall += res.Wall
		s.memCycles += res.MemCycles
		results = append(results, res)
	}
	s.allocBytes = heapAllocated() - heap
	d, err := digestResults(results)
	s.digest = d
	return s, err
}

// sweepJobs is the runplan pool width: two workers, or fewer on a
// smaller host, so the figure does not change with the host's width.
func sweepJobs() int { return min(2, runtime.NumCPU()) }

// runSweep runs experiments.Fig11 over sweepWorkloads on the pool. Its
// set-up is the sim.NewSim time of the sweep's distinct cells, measured
// after the sweep; cycles per second sum over the cells' runs.
func runSweep(ctx context.Context, seed int64, cells []sim.Config) (sample, []runplan.Event, error) {
	var s sample
	var events []runplan.Event
	opts := experiments.Options{
		Insts: sweepInsts, Seed: seed, Jobs: sweepJobs(), Context: ctx,
		Progress: runplan.SinkFunc(func(e runplan.Event) { events = append(events, e) }),
	}
	heap := heapAllocated()
	start := time.Now()
	sw, err := experiments.Fig11(opts, sweepWorkloads)
	if err != nil {
		return s, nil, err
	}
	s.wall = time.Since(start)
	s.allocBytes = heapAllocated() - heap
	for _, e := range events {
		s.memCycles += e.Stats.MemCycles
		s.simWall += e.Stats.Wall
	}
	if s.setup, err = setupTime(cells); err != nil {
		return s, nil, err
	}
	s.digest, err = digestJSON(sw)
	return s, events, err
}

// setupTime is the sim.NewSim time of one set-up of every cell.
func setupTime(cells []sim.Config) (time.Duration, error) {
	var d time.Duration
	for _, cfg := range cells {
		t := time.Now()
		if _, err := sim.NewSim(cfg); err != nil {
			return 0, err
		}
		d += time.Since(t)
	}
	return d, nil
}

// heapAllocated collects garbage, so the next run starts from a clean
// heap, and returns the bytes allocated so far.
func heapAllocated() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// digestResults hashes the JSON of run results with the host-time field
// cleared. Obs, the attached registry's snapshot, is cleared too: it is
// nil on plain runs and checked separately on metrics runs.
func digestResults(results []*sim.Result) (string, error) {
	var out []sim.Result
	for _, r := range results {
		c := *r
		c.Wall, c.Obs = 0, nil
		out = append(out, c)
	}
	return digestJSON(out)
}

func digestJSON(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
