package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func TestMedianAndQuartiles(t *testing.T) {
	// Expected values are Python's statistics.median and
	// statistics.quantiles(xs, n=4) on the same samples.
	cases := []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 2.5, 1.25, 3.75},
		{[]float64{5, 1, 4, 2, 3}, 3, 1.5, 4.5},
		{[]float64{2.5, 2.5}, 2.5, 2.5, 2.5},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 55, 27.5, 82.5},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if got := median(c.xs); math.Abs(got-c.med) > 1e-12 {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestMetricAndWorkloadNames(t *testing.T) {
	seen := map[string]bool{}
	names := []string{"failed_frac"}
	for _, m := range append(append([]metricSpec(nil), endToEndMetrics...), layerMetrics...) {
		names = append(names, m.name)
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("%s: better = %q", m.name, m.better)
		}
	}
	for _, w := range workloads {
		names = append(names, w.name)
	}
	for _, n := range names {
		if !metricName.MatchString(n) {
			t.Errorf("name %q does not match %s", n, metricName)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
}

// issueNames are the workloads and metrics the benchmark was specified
// with. failed_frac is left out: it reads 0 on a healthy tree, so it is
// carried by the result's failed/attempted fields instead of a metric.
var issueNames = struct{ workloads, endToEnd, layers []string }{
	workloads: []string{"tigr-4x", "idle", "quad-mix", "fig11-sweep"},
	endToEnd:  []string{"wall_s", "setup_s", "mcycles_per_s", "alloc_mb"},
	layers: []string{
		"sim.steps", "sim.skip_ratio", "sim.horizon_ns", "sim.horizon_hit_ratio", "sim.loop_self_ns", "sim.stepped_speedup",
		"controller.tick_ns", "controller.tick_share", "controller.nextevent_ns", "controller.replay_ns",
		"controller.enqueue_ns", "controller.enqueue_reject_ratio", "controller.queue_depth_mean", "controller.drain_ns",
		"dram.rankbusy_ns", "dram.rankspan_ns", "dram.gate_ns", "dram.nextready_ns", "dram.acts_per_kinst",
		"mech.rowparams_ns", "cpu.cycle_ns", "cpu.fetch_stall_ratio", "cpu.skipbound_ns", "cpu.fastforward_ns",
		"trace.record_ns", "trace.profile_s", "alloc.build_s", "snapshot.encode_us", "snapshot.decode_us", "snapshot.bytes",
		"obs.overhead_pct", "runplan.worker_busy_ratio", "runplan.cell_wall_max_s", "runplan.memo_hit_ratio",
		"bench.traced_overhead_pct",
	},
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}

	var wls []string
	for i, w := range bf.Workloads {
		wls = append(wls, w.Name)
		if i < len(workloads) && w.Why != workloads[i].why {
			t.Errorf("workload %s: why differs from workloads.go", w.Name)
		}
	}
	var codeWls []string
	for _, w := range workloads {
		codeWls = append(codeWls, w.name)
	}
	sameList(t, "workloads", wls, codeWls)

	var e2e, e2eCode []string
	for i, m := range bf.EndToEnd {
		e2e = append(e2e, m.Name)
		if i < len(endToEndMetrics) && (m.Unit != endToEndMetrics[i].unit || m.Better != endToEndMetrics[i].better) {
			t.Errorf("%s: unit/better %s/%s differ from the code", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range endToEndMetrics {
		e2eCode = append(e2eCode, m.name)
	}
	sameList(t, "end_to_end", e2e, e2eCode)

	var layers, layersCode []string
	for i, m := range bf.PerLayer {
		layers = append(layers, m.Name)
		if i < len(layerMetrics) && (m.Unit != layerMetrics[i].unit || m.Better != layerMetrics[i].better) {
			t.Errorf("%s: unit/better %s/%s differ from the code", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range layerMetrics {
		layersCode = append(layersCode, m.name)
	}
	sameList(t, "per_layer", layers, layersCode)

	contains(t, "workloads", wls, issueNames.workloads)
	contains(t, "end_to_end", e2e, issueNames.endToEnd)
	contains(t, "per_layer", layers, issueNames.layers)
	for _, p := range bf.Paths {
		if p != "mcrbench" {
			t.Errorf("unexpected path %q", p)
		}
	}
	if strings.Join(bf.Command, " ") != "bash mcrbench/run.sh" {
		t.Errorf("command = %v", bf.Command)
	}
}

func sameList(t *testing.T, what string, got, want []string) {
	t.Helper()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("%s in BENCHMARK.json = %v, code has %v", what, got, want)
	}
}

func contains(t *testing.T, what string, have, want []string) {
	t.Helper()
	set := map[string]bool{}
	for _, h := range have {
		set[h] = true
	}
	for _, w := range want {
		if !set[w] {
			t.Errorf("%s: %s is missing from BENCHMARK.json", what, w)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "idle", "--trace", "2"},
		{"--workload", "idle", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("run(%v) printed a result: %s", args, out.String())
		}
	}
}
