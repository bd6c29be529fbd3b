package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"timebounds/internal/engine"
)

// runOptions sizes and seeds one workload run.
type runOptions struct {
	seed int64
	// seconds sizes the run through benchDef.iterations and sets the
	// overrun guard; iters, when positive, fixes the iteration count
	// instead (smoke runs and tests).
	seconds int
	iters   int
	// workers is Engine.Workers for the end-to-end entry point.
	workers int
	// setupReps is how many times set-up is repeated for its median.
	setupReps int
	// outDir receives trace-<workload>.json.
	outDir string
}

func (o runOptions) iterations(d benchDef) int {
	if o.iters > 0 {
		return o.iters
	}
	return d.iterations(o.seconds)
}

// report is one workload run's outcome: the catalogued metric values plus
// what the human-readable output adds.
type report struct {
	def       benchDef
	seed      int64
	iters     int
	truncated bool
	traced    bool
	workers   int
	attempted int
	failed    int
	correct   bool
	digest    uint64
	// compared and mismatched count the traced pass's decomposed
	// histories checked against the engine's, and those that differed.
	compared, mismatched int
	values               map[string]float64
	// info lines are printed but are not catalogued metrics.
	info  []string
	notes []string
}

// measure is the untraced pass: repeated set-up, then a fixed number of
// timed iterations through the workload's end-to-end entry point. Only
// exec sits inside the timed window and the allocation counters;
// verification and sample collection run between iterations.
func measure(b bench, opt runOptions) report {
	def := b.def()
	iters := opt.iterations(def)
	eng := engine.New(opt.workers)

	// Set-up: input generation for every iteration plus one untimed
	// warm-up iteration, so caches fill and lazy initialisation finishes
	// before timing. Repeated, and reported as the median, because a
	// single sub-second reading is mostly noise.
	setups := make([]float64, 0, opt.setupReps)
	for r := 0; r < opt.setupReps; r++ {
		t := time.Now()
		b.generate(opt.seed, iters)
		b.harvest(b.exec(eng, 0), newAccumulator())
		setups = append(setups, time.Since(t).Seconds())
	}
	runtime.GC()

	acc := newAccumulator()
	iterMs := make([]float64, 0, iters)
	rates := make([]float64, 0, iters)
	var m0, m1 runtime.MemStats
	var mallocs, bytes uint64
	truncated := false
	start := time.Now()
	for i := 0; i < iters; i++ {
		runtime.ReadMemStats(&m0)
		t := time.Now()
		raw := b.exec(eng, i)
		dt := time.Since(t)
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		bytes += m1.TotalAlloc - m0.TotalAlloc
		ops := b.harvest(raw, acc)
		iterMs = append(iterMs, dt.Seconds()*1e3)
		rates = append(rates, float64(ops)/dt.Seconds())
		// Iteration counts are fixed so both sides of a comparison do the
		// same work; this guard only keeps a run on a much slower box (or
		// a badly regressed build) inside the driver's time limit.
		if opt.seconds > 0 && i+1 >= minIters && i+1 < iters && time.Since(start) > 2*time.Duration(opt.seconds)*time.Second {
			truncated = true
			iters = i + 1
		}
	}

	rep := report{
		def: def, seed: opt.seed, iters: iters, truncated: truncated, workers: opt.workers,
		attempted: acc.attempted, failed: acc.failed, correct: acc.failed == 0,
		digest: acc.digest.Sum64(), notes: acc.notes,
	}
	perOp := func(total uint64) float64 {
		if acc.attempted == 0 {
			return 0
		}
		return float64(total) / float64(acc.attempted)
	}
	p50, p95 := median(acc.p50s), median(acc.p95s)
	rep.values = map[string]float64{
		"setup_s":            median(setups),
		"ops_per_s":          median(rates),
		"allocs_per_op":      perOp(mallocs),
		"bytes_per_op":       perOp(bytes),
		"op_p50_d":           p50 / float64(def.d),
		"op_p95_d":           p95 / float64(def.d),
		"latency_over_bound": median(acc.ratios),
	}
	hiPct, hiMs := tailOf(iterMs)
	share := 0.0
	if acc.attempted > 0 {
		share = float64(acc.failed) / float64(acc.attempted)
	}
	rep.info = []string{
		fmt.Sprintf("failed_share        %g  (%d of %d operations)", share, acc.failed, acc.attempted),
		fmt.Sprintf("op latency          p50 %.6f ms, p95 %.6f ms: medians of %d per-iteration percentiles over %d samples (d = %s)", p50/1e6, p95/1e6, len(acc.p50s), acc.samples, def.d),
		fmt.Sprintf("iteration           p50 %.3f ms, highest supported percentile p%g %.3f ms, over %d iterations", median(iterMs), hiPct, hiMs, len(iterMs)),
		fmt.Sprintf("peak_rss_mb         %.1f", peakRSSMB()),
	}
	return rep
}

// measureTraced is the traced pass: a fifth of the iterations, each run
// three ways — through the entry point at the full worker count (the
// untraced-style time), through it on one worker (engine.total), and
// decomposed into direct layer calls under spans.
func measureTraced(b bench, opt runOptions) report {
	def := b.def()
	start := time.Now()
	iters := opt.iterations(def) / 5
	if iters < 1 {
		iters = 1
	}
	eng := engine.New(opt.workers)
	b.generate(opt.seed, iters)
	b.harvest(b.exec(eng, 0), newAccumulator())
	runtime.GC()

	p := newTracedPass(iters)
	acc := newAccumulator()
	parallelMs := make([]float64, 0, iters)
	for i := 0; i < iters; i++ {
		root := p.tr.begin("iteration", -1, i, "")
		id := p.tr.begin("e2e.parallel", root, i, "")
		raw := b.exec(eng, i)
		parallelMs = append(parallelMs, float64(p.tr.end(id))/1e6)
		b.harvest(raw, acc)

		id = p.tr.begin("engine.total", root, i, "")
		raw = b.exec(p.eng1, i)
		p.tr.end(id)

		id = p.tr.begin("decomposed", root, i, "")
		p.startIteration(i, id)
		b.decompose(p, raw)
		p.endIteration()
		p.tr.end(id)
		p.tr.end(root)
	}

	rep := report{
		def: def, seed: opt.seed, iters: iters, traced: true, workers: opt.workers,
		attempted: acc.attempted, failed: acc.failed,
		correct:  acc.failed == 0 && p.mismatched == 0,
		compared: p.compared, mismatched: p.mismatched,
		digest: acc.digest.Sum64(), notes: append(acc.notes, p.notes...),
	}
	rep.values = p.layerMetrics(iters, parallelMs)
	hiPct, hiMs := tailOf(parallelMs)
	rep.values["harness.iters"] = float64(iters)
	rep.values["harness.iter_p50_ms"] = median(parallelMs)
	rep.values["harness.iter_hi_ms"] = hiMs
	rep.values["harness.iter_hi_pct"] = hiPct
	rep.values["harness.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	rep.info = []string{
		fmt.Sprintf("histories           %d decomposed histories compared to the engine's, %d differ", p.compared, p.mismatched),
	}
	path := filepath.Join(opt.outDir, "trace-"+def.name+".json")
	if err := p.tr.write(path); err != nil {
		rep.notes = append(rep.notes, fmt.Sprintf("trace not written: %v", err))
	} else {
		rep.info = append(rep.info, fmt.Sprintf("trace               %d spans in %s", len(p.tr.spans), path))
	}
	rep.values["harness.peak_rss_mb"] = peakRSSMB()
	rep.values["harness.wall_s"] = time.Since(start).Seconds()
	return rep
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB; 0 where
// /proc is not available.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// catalogue returns the metric definitions the report's pass produces.
func (r report) catalogue() []metricDef {
	if r.traced {
		return perLayer
	}
	return endToEnd
}

// print writes the report for a reader, every metric by name with its
// unit, and then the result line the driver parses.
func (r report) print(w io.Writer) error {
	pass := "untraced"
	if r.traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "workload %s  pass=%s seed=%d iterations=%d workers=%d gomaxprocs=%d digest=%016x\n",
		r.def.name, pass, r.seed, r.iters, r.workers, runtime.GOMAXPROCS(0), r.digest)
	if r.truncated {
		fmt.Fprintf(w, "  WARNING: stopped after %d iterations: the run passed twice its sized length\n", r.iters)
	}
	for _, d := range r.catalogue() {
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  (%s is better, may worsen by %g%%)", d.Better, d.Bound*100)
		}
		fmt.Fprintf(w, "  %-28s %18.6f %-5s%s\n", d.Name, r.values[d.Name], d.Unit, bound)
	}
	for _, line := range r.info {
		fmt.Fprintf(w, "  %s\n", line)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  FAILED: %s\n", n)
	}
	line, err := json.Marshal(resultLine{
		Correct:   r.correct,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   withUnits(r.catalogue(), r.values),
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
