// Command mcrbench is the repository's benchmark: host-time throughput of
// the MCR-DRAM simulator on four named workloads, with an untraced
// end-to-end pass and a traced per-layer pass. See README.md.
//
//	go run . --workload tigr-4x --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: whether every
// output check passed, the checks attempted and failed, and the metrics
// by name with their units.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// deadlineSlack bounds how far past --seconds a pass may run before it
// is cancelled.
const deadlineSlack = 150 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mcrbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 10, "measuring time of the pass")
	traced := fs.Int("trace", 0, "0: untraced end-to-end pass; 1: traced per-layer pass")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "mcrbench:", err)
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "mcrbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "mcrbench: --seconds must be positive")
		return 2
	}
	span := time.Duration(*seconds * float64(time.Second))
	ctx, cancel := context.WithTimeout(context.Background(), span+deadlineSlack)
	defer cancel()

	specs := endToEndMetrics
	var rep *report
	if *traced == 1 {
		specs = layerMetrics
		rep, err = runTraced(ctx, w, *seed, span)
	} else {
		rep, err = endToEnd(ctx, w, *seed, span)
	}
	if err != nil {
		fmt.Fprintf(stderr, "mcrbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := printReport(stdout, w, *seed, *traced, specs, rep); err != nil {
		fmt.Fprintln(stderr, "mcrbench:", err)
		return 1
	}
	return 0
}

// runTraced runs the traced pass with a scratch directory for the
// mid-run checkpoint under the process's temporary directory.
func runTraced(ctx context.Context, w workload, seed int64, span time.Duration) (*report, error) {
	scratch, err := os.MkdirTemp("", "mcrbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	return tracedPass(ctx, w, seed, span, scratch)
}

// environment describes the host a result was measured on.
type environment struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      int     `json:"trace"`
	GoVersion  string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	WarmupS    float64 `json:"warmup_s"`
}

// cpuModel reads the first model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printReport writes the environment, one line per metric with its
// median, quartiles and sample count, failed_frac, and last the JSON
// result line.
func printReport(out io.Writer, w workload, seed int64, traced int, specs []metricSpec, rep *report) error {
	env, err := json.Marshal(environment{
		Workload: w.name, Seed: seed, Trace: traced,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPU: cpuModel(), WarmupS: rep.warmup.Seconds(),
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "env %s\n", env)
	if rep.digest != "" {
		fmt.Fprintf(out, "outputs sha256 %s\n", rep.digest)
	}
	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		xs := rep.samples[s.name]
		if len(xs) == 0 {
			return fmt.Errorf("metric %s has no samples", s.name)
		}
		q1, q3 := quartiles(xs)
		v := median(xs)
		fmt.Fprintf(out, "%-32s %14.6g %-8s median of %d, q1 %.6g, q3 %.6g\n", s.name, v, s.unit, len(xs), q1, q3)
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	fmt.Fprintf(out, "%-32s %14.6g %-8s %d of %d checks failed\n", "failed_frac", ratio(float64(rep.failed), float64(rep.attempted)), "ratio", rep.failed, rep.attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
