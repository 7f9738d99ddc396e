package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/mcr"
	"repro/internal/mcr/mcrtest"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

func TestParseModeValid(t *testing.T) {
	if m, err := parseMode(1, 0, 1.0); err != nil || m.Enabled() {
		t.Fatalf("k=1 must disable MCR: %v %v", m, err)
	}
	m, err := parseMode(4, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if m != mcrtest.Mode(4, 4, 0.5) {
		t.Fatalf("m must default to k, got %v", m)
	}
	if _, err := parseMode(2, 1, 0.25); err != nil {
		t.Fatalf("2/1x rejected: %v", err)
	}
}

func TestParseModeInvalid(t *testing.T) {
	cases := []struct {
		k, m   int
		region float64
		want   string // substring the error must carry
	}{
		{3, 0, 1.0, "valid: 1 = off, 2, 4"},
		{8, 0, 1.0, "valid: 1 = off, 2, 4"},
		{1, 2, 1.0, "-k 1 disables MCR"},
		{4, 3, 1.0, "valid -m"},
		{4, 8, 1.0, "valid -m"},
		{4, 4, 0.3, "valid -region"},
	}
	for _, c := range cases {
		_, err := parseMode(c.k, c.m, c.region)
		if err == nil {
			t.Errorf("k=%d m=%d region=%g accepted", c.k, c.m, c.region)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("k=%d m=%d region=%g: error %q must contain %q", c.k, c.m, c.region, err, c.want)
		}
	}
}

func TestParseWiring(t *testing.T) {
	if w, err := parseWiring("n1k"); err != nil || w != mcr.KtoN1K {
		t.Fatalf("n1k: %v %v", w, err)
	}
	if w, err := parseWiring("ktok"); err != nil || w != mcr.KtoK {
		t.Fatalf("ktok: %v %v", w, err)
	}
	_, err := parseWiring("diagonal")
	if err == nil {
		t.Fatal("bad wiring accepted")
	}
	if !strings.Contains(err.Error(), "n1k") || !strings.Contains(err.Error(), "ktok") {
		t.Errorf("error must list the valid wirings: %v", err)
	}
}

func TestValidateCheckpointFlags(t *testing.T) {
	// No checkpoint flags: no policy.
	if ck, err := validateCheckpointFlags("", "", 0, false); err != nil || ck != nil {
		t.Fatalf("no flags: %v %v", ck, err)
	}
	// -checkpoint with its interval: lenient resume.
	ck, err := validateCheckpointFlags("run.ckpt", "", 4096, false)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Path != "run.ckpt" || ck.EveryNCycles != 4096 || !ck.Resume || ck.Strict {
		t.Fatalf("-checkpoint policy = %+v", ck)
	}
	// -restore alone: strict resume, no further writes.
	ck, err = validateCheckpointFlags("", "run.ckpt", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Path != "run.ckpt" || ck.EveryNCycles != 0 || !ck.Resume || !ck.Strict {
		t.Fatalf("-restore policy = %+v", ck)
	}

	// Contradictory combinations, each with a message naming the cure.
	cases := []struct {
		checkpoint, restore string
		every               int64
		compare             bool
		want                string // substring the error must carry
	}{
		{"run.ckpt", "", 0, false, "-checkpoint-every"},
		{"", "", 4096, false, "-checkpoint-every needs"},
		{"a.ckpt", "b.ckpt", 4096, false, "conflict"},
		{"run.ckpt", "", -1, false, "positive"},
		{"run.ckpt", "", 4096, true, "-compare"},
		{"", "run.ckpt", 0, true, "-compare"},
	}
	for _, c := range cases {
		_, err := validateCheckpointFlags(c.checkpoint, c.restore, c.every, c.compare)
		if err == nil {
			t.Errorf("checkpoint=%q restore=%q every=%d compare=%v accepted", c.checkpoint, c.restore, c.every, c.compare)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("checkpoint=%q restore=%q every=%d: error %q must contain %q", c.checkpoint, c.restore, c.every, err, c.want)
		}
	}
}

// TestValidateRestoreConfig: -restore with mismatched configuration flags
// (here a different -fault-seed) is refused before the run starts.
func TestValidateRestoreConfig(t *testing.T) {
	cfg := sim.DefaultConfig("stream")
	cfg.InstsPerCore = 5_000
	cfg.Fault = &fault.Config{Seed: 7, WeakFraction: 0.05, TailMinFrac: 0.0005, TailMaxFrac: 0.005}
	s, err := sim.NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	if err := validateRestoreConfig(path, cfg); err != nil {
		t.Fatalf("matching config rejected: %v", err)
	}
	other := cfg
	fc := *cfg.Fault
	fc.Seed = 8 // the -fault-seed mismatch
	other.Fault = &fc
	err = validateRestoreConfig(path, other)
	if !errors.Is(err, snapshot.ErrConfigMismatch) {
		t.Fatalf("want snapshot.ErrConfigMismatch, got %v", err)
	}
	if !strings.Contains(err.Error(), "-fault-seed") {
		t.Errorf("error must point at the flag family: %v", err)
	}
	if err := validateRestoreConfig(filepath.Join(t.TempDir(), "absent.ckpt"), cfg); err == nil {
		t.Error("missing snapshot accepted")
	}
}

func TestValidateWorkloads(t *testing.T) {
	if err := validateWorkloads([]string{"tigr", "comm2"}); err != nil {
		t.Fatalf("catalogue workloads rejected: %v", err)
	}
	err := validateWorkloads([]string{"tigr", "nosuch"})
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
	if !strings.Contains(err.Error(), "nosuch") || !strings.Contains(err.Error(), "tigr") {
		t.Errorf("error must name the input and list the catalogue: %v", err)
	}
}

// TestValidateCounts pins that negative -jobs and -degrade-after fail at
// flag validation with a message naming the flag.
func TestValidateCounts(t *testing.T) {
	if err := validateCounts(0, 0); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	if err := validateCounts(4, 2); err != nil {
		t.Fatalf("valid counts rejected: %v", err)
	}
	cases := []struct {
		flag          string
		jobs, degrade int
	}{
		{"-jobs", -4, 0},
		{"-degrade-after", 0, -3},
	}
	for _, tc := range cases {
		err := validateCounts(tc.jobs, tc.degrade)
		if err == nil {
			t.Errorf("%s: negative value accepted", tc.flag)
			continue
		}
		if !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%s: error must name the flag: %v", tc.flag, err)
		}
	}
}
