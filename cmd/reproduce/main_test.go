package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
)

func TestValidateMetric(t *testing.T) {
	for _, ok := range []string{"exec", "readlat", "edp"} {
		if err := validateMetric(ok); err != nil {
			t.Errorf("metric %q rejected: %v", ok, err)
		}
	}
	err := validateMetric("latency")
	if err == nil {
		t.Fatal("bad metric accepted")
	}
	for _, want := range []string{"exec", "readlat", "edp", "latency"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error must list %q: %v", want, err)
		}
	}
}

func TestValidateFig(t *testing.T) {
	for _, ok := range []int{3, 8, 10, 11, 12, 13, 14, 15, 16, 17, 18} {
		if err := validateFig(ok); err != nil {
			t.Errorf("fig %d rejected: %v", ok, err)
		}
	}
	for _, bad := range []int{0, 1, 2, 9, 19, -3} {
		err := validateFig(bad)
		if err == nil {
			t.Errorf("fig %d accepted", bad)
			continue
		}
		if !strings.Contains(err.Error(), "11") {
			t.Errorf("error must list the valid figures: %v", err)
		}
	}
}

func TestValidateExtra(t *testing.T) {
	for _, ok := range []string{"combined", "tldram", "shootout", "wiring", "scheduler", "rowpolicy", "repeat"} {
		if err := validateExtra(ok); err != nil {
			t.Errorf("extra %q rejected: %v", ok, err)
		}
	}
	err := validateExtra("nope")
	if err == nil {
		t.Fatal("bad extra accepted")
	}
	if !strings.Contains(err.Error(), "tldram") || !strings.Contains(err.Error(), "nope") {
		t.Errorf("error must name the input and the valid studies: %v", err)
	}
}

func TestRunRejectsUnknownFig(t *testing.T) {
	// run() is only reached through validateFig, but keep its own guard.
	if err := run(99, experiments.Quick(), "exec"); err == nil {
		t.Fatal("unknown figure must error")
	}
}

// stdoutOf runs f with os.Stdout redirected to a file and returns what
// it printed.
func stdoutOf(t *testing.T, f func() error) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stdout")
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = out
	err = f()
	os.Stdout = saved
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFig11EnginesPrintIdenticalTables pins -engine end to end: the
// Fig 11 tables are byte-identical under both run loops.
func TestFig11EnginesPrintIdenticalTables(t *testing.T) {
	tables := map[sim.Engine][]byte{}
	for _, e := range []sim.Engine{sim.Stepped, sim.EventDriven} {
		opt := experiments.Options{Insts: 20_000, Seed: 1, Engine: e}
		tables[e] = stdoutOf(t, func() error { return run(11, opt, "exec") })
	}
	if len(tables[sim.Stepped]) == 0 {
		t.Fatal("Fig 11 printed nothing")
	}
	if !bytes.Equal(tables[sim.Stepped], tables[sim.EventDriven]) {
		t.Errorf("Fig 11 tables differ across engines\nstepped:\n%s\nevent-driven:\n%s", tables[sim.Stepped], tables[sim.EventDriven])
	}
}

// TestValidateCounts pins that negative counts fail at flag validation
// with a message naming the flag, and that zero keeps each default.
func TestValidateCounts(t *testing.T) {
	if err := validateCounts(0, 0, 0, 0); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	if err := validateCounts(30_000, 4, 2, time.Minute); err != nil {
		t.Fatalf("valid counts rejected: %v", err)
	}
	cases := []struct {
		flag        string
		insts       int64
		jobs, tries int
		timeout     time.Duration
	}{
		{"-insts", -5, 0, 0, 0},
		{"-jobs", 0, -2, 0, 0},
		{"-retries", 0, 0, -1, 0},
		{"-spec-timeout", 0, 0, 0, -time.Second},
	}
	for _, tc := range cases {
		err := validateCounts(tc.insts, tc.jobs, tc.tries, tc.timeout)
		if err == nil {
			t.Errorf("%s: negative value accepted", tc.flag)
			continue
		}
		if !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%s: error must name the flag: %v", tc.flag, err)
		}
	}
}
