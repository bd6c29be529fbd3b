// Command benchmark is the repository's benchmark: four named workloads
// (grid-verify, zipf-migrate, load-study, live-chan), seven end-to-end
// metrics measured with tracing off, and a traced pass that times the
// calls into each layer's public functions from outside the program.
// BENCHMARK.json at the repository root is its manifest; README.md beside
// this file is the catalogue of workloads, metrics and how they interact.
//
// It is a module of its own (see go.mod) so that it builds from this
// directory alone against whatever timebounds tree sits above it. Run it
// from this directory:
//
//	go run . [-seed N] [-seconds S]              every workload, untraced then traced
//	go run . -workload W -trace 0|1 [-seed N]    one workload, one pass, result line last
//	go run . -agree                              the untraced set twice, compared to the bounds
//	go run . -smoke                              one iteration per workload and pass
//
// run.sh builds it into .bench_build/ at the repository root and is what
// BENCHMARK.json names.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the run length the
// iteration counts, the golden digests and the README's figures assume.
const defaultSeconds = 20

func main() {
	var (
		name    = flag.String("workload", "", "run one workload (grid-verify|zipf-migrate|load-study|live-chan) and print its result line last; empty runs all four, each pass in a process of its own")
		seed    = flag.Int64("seed", 1, "seed every iteration's inputs derive from")
		seconds = flag.Int("seconds", defaultSeconds, "run length the fixed iteration counts are sized for")
		trace   = flag.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 runs the traced pass for the per-layer metrics")
		smoke   = flag.Bool("smoke", false, "one iteration per workload and a single set-up: a check that everything runs, not a measurement")
		agree   = flag.Bool("agree", false, "run the untraced set twice on this build and compare every (metric, workload) pair to its bound")
		out     = flag.String("out", "out", "directory for trace-<workload>.json")
		golden  = flag.Bool("update-golden", false, "with -workload: rewrite golden/<workload>.digest from this run")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	// Two workers at most, recorded with every report: the worker pool
	// and the scheduler are part of what is measured, and a comparison is
	// only fair at the same width.
	workers := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(workers)

	shared := []string{"-seed", strconv.FormatInt(*seed, 10), "-seconds", strconv.Itoa(*seconds), "-out", *out}
	if *smoke {
		shared = append(shared, "-smoke")
	}
	switch {
	case *agree:
		os.Exit(runAgree(shared))
	case *name == "":
		os.Exit(runAll(shared))
	}

	b, err := benchByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	opt := runOptions{seed: *seed, seconds: *seconds, workers: workers, setupReps: 7, outDir: *out}
	if *smoke {
		opt.iters, opt.setupReps = 1, 1
	}
	var rep report
	if *trace == 1 {
		rep = measureTraced(b, opt)
	} else {
		rep = measure(b, opt)
		if warning := checkGolden(rep, *golden); warning != "" {
			rep.info = append(rep.info, warning)
		}
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// checkGolden compares the run's digest to golden/<workload>.digest when
// that file was recorded at the same seed and iteration count, and
// returns a warning when they differ. A differing digest means the
// program's behaviour changed — names, op counts, per-kind statistics,
// verdicts or converged states — which is worth knowing but is not by
// itself wrong, so it never fails the run.
func checkGolden(rep report, update bool) string {
	path := filepath.Join("golden", rep.def.name+".digest")
	if update {
		line := fmt.Sprintf("seed=%d iterations=%d digest=%016x\n", rep.seed, rep.iters, rep.digest)
		if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
			return fmt.Sprintf("WARNING: golden digest not written: %v", err)
		}
		return "golden digest written to " + path
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	var seed int64
	var iters int
	var digest uint64
	if _, err := fmt.Sscanf(string(data), "seed=%d iterations=%d digest=%x", &seed, &iters, &digest); err != nil {
		return fmt.Sprintf("WARNING: %s is unreadable: %v", path, err)
	}
	if seed == rep.seed && iters == rep.iters && digest != rep.digest {
		return fmt.Sprintf("WARNING: digest %016x differs from %s (%016x): the program's outputs changed", rep.digest, path, digest)
	}
	return ""
}

// runChild re-executes this binary for one workload and pass, echoing its
// output, and parses the result line it printed last. A process per run
// keeps allocation counters, GC state and peak RSS from bleeding between
// workloads.
func runChild(echo io.Writer, shared []string, workload string, trace int) (resultLine, error) {
	self, err := os.Executable()
	if err != nil {
		return resultLine{}, err
	}
	args := append([]string{"-workload", workload, "-trace", strconv.Itoa(trace)}, shared...)
	var buf bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout = io.MultiWriter(echo, &buf)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return resultLine{}, fmt.Errorf("%s (trace %d): %w", workload, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	var res resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return resultLine{}, fmt.Errorf("%s (trace %d): result line: %w", workload, trace, err)
	}
	return res, nil
}

// runAll runs every workload untraced and then traced, and reports
// whether every verdict held.
func runAll(shared []string) int {
	status := 0
	for _, b := range benches() {
		for trace := 0; trace <= 1; trace++ {
			res, err := runChild(os.Stdout, shared, b.def().name, trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				status = 1
			} else if !res.Correct {
				fmt.Fprintf(os.Stderr, "benchmark: %s (trace %d): %d of %d operations failed or a traced history differed\n",
					b.def().name, trace, res.Failed, res.Attempted)
				status = 1
			}
		}
	}
	return status
}

// runAgree runs the untraced set twice on the same build and prints, per
// (metric, workload), the relative difference between the two runs beside
// the metric's bound. It is the tool for telling noise from change: a
// pair that disagrees by more than its bound on identical code would
// reject an innocent change.
func runAgree(shared []string) int {
	sets := make([]map[string]resultLine, 2)
	for s := range sets {
		sets[s] = make(map[string]resultLine)
		for _, b := range benches() {
			res, err := runChild(io.Discard, shared, b.def().name, 0)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			sets[s][b.def().name] = res
		}
	}
	status := 0
	fmt.Printf("%-13s %-20s %16s %16s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, b := range benches() {
		name := b.def().name
		first, second := sets[0][name], sets[1][name]
		for _, d := range endToEnd {
			x, y := first.Metrics[d.Name].Value, second.Metrics[d.Name].Value
			diff := 0.0
			if x != 0 {
				diff = math.Abs(y-x) / math.Abs(x)
			}
			verdict := ""
			if diff > d.Bound {
				verdict = "  DISAGREE"
				status = 1
			}
			fmt.Printf("%-13s %-20s %16.6f %16.6f %8.2f%% %6.0f%%%s\n", name, d.Name, x, y, diff*100, d.Bound*100, verdict)
		}
		if first.Failed+second.Failed > 0 {
			fmt.Printf("%-13s failed operations: %d then %d\n", name, first.Failed, second.Failed)
			status = 1
		}
	}
	return status
}
