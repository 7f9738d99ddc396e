package sim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// ckptTraceCap is the tracer capacity shared by every run of a parity
// comparison: restoring trace events requires identical ring capacity.
const ckptTraceCap = 256

// resultJSON runs cfg (with fresh observability attachments) and renders
// the Result with the nondeterministic wall clock zeroed.
func resultJSON(t *testing.T, ctx context.Context, cfg sim.Config) []byte {
	t.Helper()
	cfg.Metrics = obs.NewRegistry()
	cfg.Trace = obs.NewTracer(ckptTraceCap)
	res, err := sim.RunContext(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res.Wall = 0
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCheckpointResumeParity is the tentpole's correctness pin: for every
// mechanism backend, a run interrupted mid-flight and restored from its
// checkpoint must produce a Result byte-identical to the uninterrupted
// run — with fault injection, metrics and tracing all enabled.
func TestCheckpointResumeParity(t *testing.T) {
	for name, cfg := range sim.CheckpointConfigs(t) {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.ckpt")
			want := resultJSON(t, context.Background(), cfg)

			// Interrupted run: cancel at the first checkpoint write; the
			// loop notices at the next amortized poll, well before the run
			// finishes.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var wrote int64
			icfg := cfg
			icfg.Metrics = obs.NewRegistry()
			icfg.Trace = obs.NewTracer(ckptTraceCap)
			icfg.Checkpoint = &sim.CheckpointConfig{
				Path:         path,
				EveryNCycles: 4096,
				Resume:       true,
				OnWrite: func(cycle int64) {
					if wrote == 0 {
						wrote = cycle
					}
					cancel()
				},
			}
			if _, err := sim.RunContext(ctx, icfg); !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted run: want context.Canceled, got %v (did the run finish before a checkpoint was due?)", err)
			}
			if wrote == 0 {
				t.Fatal("checkpoint write hook never fired")
			}
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("no checkpoint on disk after interruption: %v", err)
			}

			// Resumed run: strict restore from the snapshot, then to
			// completion.
			var resumedAt int64
			rcfg := cfg
			rcfg.Checkpoint = &sim.CheckpointConfig{
				Path:         path,
				EveryNCycles: 4096,
				Resume:       true,
				Strict:       true,
				OnResume:     func(cycle int64) { resumedAt = cycle },
			}
			got := resultJSON(t, context.Background(), rcfg)
			if resumedAt != wrote {
				t.Errorf("resumed at cycle %d, checkpoint was written at %d", resumedAt, wrote)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("resumed Result diverged from uninterrupted run\n got: %s\nwant: %s", got, want)
			}
			// A completed run removes its snapshot so a rerun starts fresh.
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("checkpoint not removed after successful completion: %v", err)
			}

			// Restored before the first cycle, while every map is still
			// empty. gob keeps an empty map empty, but a snapshot written
			// elsewhere may omit it, so the maps are dropped outright: this
			// catches an ImportState that leaves a nil map for the hot path
			// to write.
			ccfg := cfg
			ccfg.Metrics, ccfg.Trace = obs.NewRegistry(), obs.NewTracer(ckptTraceCap)
			s, err := sim.NewSim(ccfg)
			if err != nil {
				t.Fatal(err)
			}
			var snap bytes.Buffer
			if err := s.Checkpoint(&snap); err != nil {
				t.Fatal(err)
			}
			st, err := snapshot.Decode(&snap)
			if err != nil {
				t.Fatal(err)
			}
			m := &st.Device.Mech
			m.Quarantined, m.Hot, m.Fast, m.Banned, m.Budget = nil, nil, nil, nil, nil
			for i := range st.Cores {
				st.Cores[i].ReadsInFlight = nil
			}
			snap.Reset()
			if err := snapshot.Encode(&snap, st); err != nil {
				t.Fatal(err)
			}
			ecfg := cfg
			ecfg.Metrics, ecfg.Trace = obs.NewRegistry(), obs.NewTracer(ckptTraceCap)
			if s, err = sim.Restore(&snap, ecfg); err != nil {
				t.Fatalf("restore from a pre-run checkpoint: %v", err)
			}
			res, err := s.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			res.Wall = 0
			if got, err = json.MarshalIndent(res, "", "  "); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("Result restored from a pre-run checkpoint diverged from uninterrupted run\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

// TestRestoreConfigMismatch: a snapshot restored under a different
// configuration is refused with the typed error.
func TestRestoreConfigMismatch(t *testing.T) {
	cfg := sim.DefaultConfig("stream")
	cfg.InstsPerCore = 10_000
	s, err := sim.NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Seed++
	if _, err := sim.Restore(bytes.NewReader(buf.Bytes()), other); !errors.Is(err, snapshot.ErrConfigMismatch) {
		t.Fatalf("want snapshot.ErrConfigMismatch, got %v", err)
	}
	// The matching config restores fine.
	if _, err := sim.Restore(bytes.NewReader(buf.Bytes()), cfg); err != nil {
		t.Fatalf("restore under the original config: %v", err)
	}
}

// TestResumeMissingSnapshot: a resume without a snapshot starts fresh by
// default and errors under Strict.
func TestResumeMissingSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent.ckpt")
	cfg := sim.DefaultConfig("stream")
	cfg.InstsPerCore = 10_000
	cfg.Checkpoint = &sim.CheckpointConfig{Path: path, Resume: true}
	if _, err := sim.Run(cfg); err != nil {
		t.Fatalf("lenient resume with no snapshot must start fresh: %v", err)
	}
	cfg.Checkpoint.Strict = true
	if _, err := sim.Run(cfg); err == nil {
		t.Fatal("strict resume with no snapshot must fail")
	}
}

// TestResumeCorruptSnapshot: a damaged snapshot file is a fresh start by
// default and a typed error under Strict — never a panic.
func TestResumeCorruptSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.ckpt")
	if err := os.WriteFile(path, []byte("MCRSNAP1 but then garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig("stream")
	cfg.InstsPerCore = 10_000
	cfg.Checkpoint = &sim.CheckpointConfig{Path: path, Resume: true, Strict: true}
	if _, err := sim.Run(cfg); !errors.Is(err, snapshot.ErrTruncated) && !errors.Is(err, snapshot.ErrChecksum) {
		t.Fatalf("strict resume from corrupt snapshot: want typed snapshot error, got %v", err)
	}
	cfg.Checkpoint.Strict = false
	if _, err := sim.Run(cfg); err != nil {
		t.Fatalf("lenient resume from corrupt snapshot must start fresh: %v", err)
	}
}

// TestCheckpointValidation: contradictory checkpoint settings are
// configuration errors, caught before the run starts.
func TestCheckpointValidation(t *testing.T) {
	cfg := sim.DefaultConfig("stream")
	cfg.InstsPerCore = 1000
	cfg.Checkpoint = &sim.CheckpointConfig{EveryNCycles: 4096}
	if _, err := sim.Run(cfg); err == nil {
		t.Fatal("EveryNCycles without a path must be rejected")
	}
	cfg.Checkpoint = &sim.CheckpointConfig{Path: "x", EveryNCycles: -1}
	if _, err := sim.Run(cfg); err == nil {
		t.Fatal("negative EveryNCycles must be rejected")
	}
}

// midRunSnapshot runs cfg until its first periodic checkpoint, cancels,
// and returns the decoded snapshot.
func midRunSnapshot(t *testing.T, cfg sim.Config) *snapshot.State {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Checkpoint = &sim.CheckpointConfig{Path: path, EveryNCycles: 4096, OnWrite: func(int64) { cancel() }}
	if _, err := sim.RunContext(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: want context.Canceled, got %v", err)
	}
	st, err := snapshot.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRestoreRejectsOutOfRangeState: a snapshot whose checksum is valid
// but whose state indexes outside the configured system is refused by
// Restore with snapshot.ErrCorrupt, never accepted to panic in Run.
func TestRestoreRejectsOutOfRangeState(t *testing.T) {
	cfg := sim.DefaultConfig("stream")
	cfg.InstsPerCore = 100_000
	cfg.Seed = 3
	base := midRunSnapshot(t, cfg)
	// enqueue adds a read for core coreID to channel 0's queue.
	enqueue := func(st *snapshot.State, coreID, row int) {
		st.Controller.ReadQ[0] = append(st.Controller.ReadQ[0], controller.Request{
			ID: 1 << 40, Kind: core.OpRead, Addr: core.Address{Row: row}, CoreID: coreID,
			ArriveAt: st.NextCycle, PreAt: -1, ActAt: -1,
		})
	}
	cases := []struct {
		name   string
		mutate func(st *snapshot.State)
	}{
		{"rob_head", func(st *snapshot.State) { st.Cores[0].Head, st.Cores[0].Sz = 1<<20, 1 }},
		{"rob_size", func(st *snapshot.State) { st.Cores[0].Sz = -5 }},
		{"reads_in_flight", func(st *snapshot.State) { st.Cores[0].ReadsInFlight[1<<40] = 1 << 20 }},
		{"pending_core", func(st *snapshot.State) {
			st.Loop.Pending = append(st.Loop.Pending, controller.Completion{ID: 1 << 40, CoreID: 7, DoneAt: 1 << 40})
		}},
		{"completion_core", func(st *snapshot.State) {
			st.Controller.Completions = append(st.Controller.Completions, controller.Completion{ID: 1 << 40, CoreID: -3, DoneAt: st.NextCycle})
		}},
		{"queued_core", func(st *snapshot.State) { enqueue(st, 7, 0) }},
		{"queued_row", func(st *snapshot.State) { enqueue(st, 0, -1) }},
		{"faw_cursor", func(st *snapshot.State) { st.Device.Ranks[0].ActWindowAt = 9 }},
		{"short_banks", func(st *snapshot.State) { st.Device.Banks = st.Device.Banks[:1] }},
		// The four below passed Restore before: a mis-kinded request or
		// a stale refresh deadline hangs Run, and an over-long queue
		// overruns the scheduler's per-pass scratch.
		{"read_queue_kind", func(st *snapshot.State) {
			enqueue(st, 0, 0)
			st.Controller.ReadQ[0][len(st.Controller.ReadQ[0])-1].Kind = 7
		}},
		{"write_queue_kind", func(st *snapshot.State) {
			st.Controller.WriteQ[0] = append(st.Controller.WriteQ[0], controller.Request{
				ID: -1, Kind: core.OpRead, ArriveAt: st.NextCycle, PreAt: -1, ActAt: -1,
			})
		}},
		{"refresh_due", func(st *snapshot.State) { st.Controller.Refresh[0].NextDue = -1 << 50 }},
		{"queue_over_cap", func(st *snapshot.State) {
			for i := 0; i < 100; i++ {
				enqueue(st, 0, i)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Round-trip through the codec so every case mutates its own
			// copy of the base state.
			var buf bytes.Buffer
			if err := snapshot.Encode(&buf, base); err != nil {
				t.Fatal(err)
			}
			st, err := snapshot.Decode(&buf)
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(st)
			buf.Reset()
			if err := snapshot.Encode(&buf, st); err != nil {
				t.Fatal(err)
			}
			if _, err := sim.Restore(&buf, cfg); !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("want snapshot.ErrCorrupt, got %v", err)
			}
		})
	}
}
