package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"

	"timebounds/internal/engine"
	"timebounds/internal/model"
	"timebounds/internal/types"
	"timebounds/internal/workload"
)

// smokeOptions is one iteration and one set-up: enough to run every code
// path, not enough to measure anything.
func smokeOptions(seed int64, workers int, t *testing.T) runOptions {
	return runOptions{seed: seed, iters: 1, workers: workers, setupReps: 1, outDir: t.TempDir()}
}

func TestHiPercentilePicksHighestWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 19, want: 50, ok: false}, // nine beyond the median
		{n: 20, want: 50, ok: true},
		{n: 36, want: 50, ok: true},
		{n: 60, want: 75, ok: true},
		{n: 184, want: 90, ok: true}, // p95 would leave nine beyond it
		{n: 240, want: 95, ok: true},
		{n: 1000, want: 99, ok: true},
		{n: 20000, want: 99.9, ok: true},
	} {
		got, ok := hiPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("hiPercentile(%d) = p%g, %t; want p%g, %t", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && tc.n-rankOf(got, tc.n) < minBeyond {
			t.Errorf("hiPercentile(%d) = p%g leaves %d samples beyond it", tc.n, got, tc.n-rankOf(got, tc.n))
		}
	}
}

func TestSelfTimeClampsAtZero(t *testing.T) {
	if got := selfNs(100, 30, 40); got != 30 {
		t.Errorf("selfNs(100, 30, 40) = %d, want 30", got)
	}
	if got := selfNs(100, 80, 50); got != 0 {
		t.Errorf("selfNs with children summing past the parent = %d, want 0", got)
	}
	// Two children that overlap each other and together outlast their
	// parent: its self time is 0, theirs is their whole duration.
	tr := &tracer{spans: []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 0, End: 70, Parent: 0},
		{Name: "b", Start: 40, End: 100, Parent: 0},
		{Name: "leaf", Start: 45, End: 50, Parent: 2},
	}}
	tr.fillSelf()
	for i, want := range []int64{0, 70, 55, 5} {
		if got := tr.spans[i].SelfNs; got != want {
			t.Errorf("span %q self = %d, want %d", tr.spans[i].Name, got, want)
		}
	}
}

func TestLatHistReturnsMeasuredValues(t *testing.T) {
	var h latHist
	// Point masses, as Algorithm 1's timer-driven latencies are.
	for i := 0; i < 600; i++ {
		h.add(3_000_000)
	}
	for i := 0; i < 400; i++ {
		h.add(13_000_000)
	}
	if got := h.percentile(50); got != 3_000_000 {
		t.Errorf("p50 = %d, want the 3 ms point mass exactly", got)
	}
	if got := h.percentile(95); got != 13_000_000 {
		t.Errorf("p95 = %d, want the 13 ms point mass exactly", got)
	}
	var spread latHist
	for v := int64(1); v <= 100_000; v++ {
		spread.add(v * 1000)
	}
	got, want := float64(spread.percentile(90)), 90_000_000.0
	if got < want || got > want*1.001 {
		t.Errorf("p90 of a uniform spread = %g, want within 0.1%% above %g", got, want)
	}
	if got := spread.percentile(100); got != 100_000_000 {
		t.Errorf("p100 = %d, want the largest sample", got)
	}
}

// TestSeedDeterminesSimulatedRuns pins the contract the golden digests
// rest on: the inputs and every simulated-clock metric are a function of
// the seed alone, whatever the worker count.
func TestSeedDeterminesSimulatedRuns(t *testing.T) {
	simulated := []string{"op_p50_d", "op_p95_d", "latency_over_bound"}
	for _, name := range []string{"grid-verify", "zipf-migrate", "load-study"} {
		run := func(seed int64, workers int) report {
			b, err := benchByName(name)
			if err != nil {
				t.Fatal(err)
			}
			return measure(b, smokeOptions(seed, workers, t))
		}
		one, two, other := run(7, 1), run(7, 2), run(8, 2)
		if one.digest != two.digest {
			t.Errorf("%s: digest %016x at 1 worker, %016x at 2", name, one.digest, two.digest)
		}
		if one.attempted != two.attempted || one.failed != 0 || two.failed != 0 {
			t.Errorf("%s: attempted/failed %d/%d at 1 worker, %d/%d at 2", name, one.attempted, one.failed, two.attempted, two.failed)
		}
		for _, m := range simulated {
			if one.values[m] != two.values[m] {
				t.Errorf("%s: %s = %v at 1 worker, %v at 2", name, m, one.values[m], two.values[m])
			}
		}
		if other.digest == one.digest {
			t.Errorf("%s: seeds 7 and 8 share digest %016x", name, one.digest)
		}
	}
}

// TestSmokeEveryWorkload runs each workload untraced at seeds 1 and 2:
// nothing fails, every end-to-end metric is reported and none is zero,
// and the result line has exactly the driver's keys.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, b := range benches() {
		name := b.def().name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []int64{1, 2} {
				b, _ := benchByName(name)
				rep := measure(b, smokeOptions(seed, 2, t))
				if !rep.correct || rep.failed != 0 || rep.attempted < 1 {
					t.Fatalf("seed %d: correct=%t failed=%d attempted=%d notes=%v", seed, rep.correct, rep.failed, rep.attempted, rep.notes)
				}
				for _, d := range endToEnd {
					if v := rep.values[d.Name]; !(v > 0) {
						t.Errorf("seed %d: %s = %v, want > 0", seed, d.Name, v)
					}
				}
				var buf bytes.Buffer
				if err := rep.print(&buf); err != nil {
					t.Fatal(err)
				}
				lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
				var line map[string]json.RawMessage
				if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
					t.Fatalf("result line: %v", err)
				}
				if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
					t.Errorf("result line keys = %v", line)
				}
			}
		})
	}
}

// TestFailuresAreCountedNotFatal feeds each kind of failure through the
// same exec and harvest the timed loop uses: the failing unit's operations
// land in failed, and everything else is still measured.
func TestFailuresAreCountedNotFatal(t *testing.T) {
	eng := engine.New(2)
	for _, tc := range []struct {
		name string
		// run returns the accumulator after the failing iteration and the
		// operations that should have failed.
		run func(t *testing.T) (acc *accumulator, wantFailed int)
		// wantSamples says whether healthy operations ran beside the
		// failure and must still have been measured.
		wantSamples bool
	}{
		{
			name: "invalid scenario in a grid",
			run: func(*testing.T) (*accumulator, int) {
				good := engine.Grid{
					Objects:   gridScalars()[:2],
					Params:    []model.Params{simParams()},
					Workloads: []workload.Spec{{OpsPerProcess: 5}},
					Verify:    true,
				}.Scenarios()
				bad := good[0]
				bad.Params.U = 2 * bad.Params.D // u > d is not a system the model admits
				acc := newAccumulator()
				harvestGrid(runGrid(eng, append(good, bad)), acc)
				return acc, bad.Params.N * 5
			},
			wantSamples: true,
		},
		{
			name: "study with no knee",
			run: func(*testing.T) (*accumulator, int) {
				st := engine.Study{
					Base: engine.Scenario{
						Backend: engine.Algorithm1{}, DataType: types.NewRMWRegister(0), Params: simParams(),
						Delay: engine.DelaySpec{Mode: engine.DelayWorst},
					},
					Loads:       []float64{30, 60}, // far below saturation
					OpsPerPoint: 10,
					Seeds:       []int64{1},
				}
				acc := newAccumulator()
				harvestStudy(runStudy(eng, st), acc)
				return acc, 2 * 4 * 10
			},
		},
		{
			name: "live run hitting the watchdog",
			run: func(t *testing.T) (*accumulator, int) {
				l := newLiveChan()
				l.generate(1, 2)
				l.watchdog = 100 * time.Millisecond // one run takes ≈ 0.5 s
				acc := newAccumulator()
				if done := l.harvest(l.exec(eng, 0), acc); done != 0 {
					t.Errorf("timed-out iteration reported %d operations done", done)
				}
				if l.abandoned {
					t.Fatal("a healthy cluster did not wind down within the grace period")
				}
				l.watchdog = 10 * time.Second
				if done := l.harvest(l.exec(eng, 1), acc); done != liveReplicas*liveOps {
					t.Errorf("iteration after the timeout completed %d operations, notes %v", done, acc.notes)
				}
				return acc, liveReplicas * liveOps
			},
			wantSamples: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			acc, wantFailed := tc.run(t)
			if acc.failed != wantFailed {
				t.Errorf("failed = %d, want %d (notes %v)", acc.failed, wantFailed, acc.notes)
			}
			if len(acc.notes) == 0 {
				t.Error("failure carries no diagnosis")
			}
			if tc.wantSamples {
				if acc.attempted <= acc.failed || acc.samples == 0 || median(acc.p50s) <= 0 {
					t.Errorf("healthy operations beside the failure were not measured: attempted=%d failed=%d samples=%d",
						acc.attempted, acc.failed, acc.samples)
				}
			} else if acc.attempted != acc.failed {
				t.Errorf("attempted = %d, failed = %d; the whole study should fail", acc.attempted, acc.failed)
			}
		})
	}
}

// TestTracedPassReproducesTheEngine runs one traced iteration per
// simulated workload: the decomposed layer calls must produce the
// engine's histories hash for hash, and the layer shares must have the
// shape the workloads were chosen for.
func TestTracedPassReproducesTheEngine(t *testing.T) {
	traced := func(name string) report {
		b, err := benchByName(name)
		if err != nil {
			t.Fatal(err)
		}
		opt := smokeOptions(3, 2, t)
		opt.iters = 5 // the traced pass runs a fifth
		rep := measureTraced(b, opt)
		if !rep.correct || rep.mismatched != 0 {
			t.Fatalf("%s: correct=%t mismatched=%d notes=%v", name, rep.correct, rep.mismatched, rep.notes)
		}
		for _, d := range perLayer {
			if _, ok := rep.values[d.Name]; !ok {
				t.Errorf("%s: per-layer metric %s not reported", name, d.Name)
			}
		}
		return rep
	}

	grid := traced("grid-verify")
	if grid.compared != 480 {
		t.Errorf("grid-verify compared %d histories, want 480", grid.compared)
	}
	if v := grid.values; !(v["sim.busy_ms"] > v["check.busy_ms"] && v["check.busy_ms"] > 0) {
		t.Errorf("grid-verify: sim %.1f ms, check %.1f ms; want sim the largest and check non-zero", v["sim.busy_ms"], v["check.busy_ms"])
	}

	zipf := traced("zipf-migrate")
	if zipf.compared != zipfShards {
		t.Errorf("zipf-migrate compared %d histories, want %d", zipf.compared, zipfShards)
	}
	if v := zipf.values; !(v["check.busy_ms"] > v["sim.busy_ms"] && v["types.replay_ms"] > v["check.busy_ms"]/2) {
		t.Errorf("zipf-migrate: check %.1f ms, sim %.1f ms, replay %.1f ms; want check the largest and replay most of it",
			v["check.busy_ms"], v["sim.busy_ms"], v["types.replay_ms"])
	}

	study := traced("load-study")
	if v := study.values; v["check.busy_ms"] != 0 || !(v["sim.busy_ms"] > 0) || !(v["engine.knee_ops_per_s"] > 0) {
		t.Errorf("load-study: check %.1f ms, sim %.1f ms, knee %.1f ops/s; want no check work at all",
			v["check.busy_ms"], v["sim.busy_ms"], v["engine.knee_ops_per_s"])
	}
}

// TestCatalogueMatchesManifest keeps metrics.go, the workload
// definitions and ../BENCHMARK.json saying the same thing.
func TestCatalogueMatchesManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&manifest); err != nil {
		t.Fatal(err)
	}
	if manifest.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, main.go's default is %d", manifest.RunSeconds, defaultSeconds)
	}
	if len(manifest.Workloads) != len(benches()) {
		t.Fatalf("manifest lists %d workloads, the benchmark defines %d", len(manifest.Workloads), len(benches()))
	}
	for i, b := range benches() {
		if w := manifest.Workloads[i]; w.Name != b.def().name || w.Why != b.def().why {
			t.Errorf("workload %d: manifest has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, b.def().name, b.def().why)
		}
		if len(b.def().why) > 200 {
			t.Errorf("%s: why is %d characters, the manifest allows 200", b.def().name, len(b.def().why))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: manifest lists %d metrics, metrics.go %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: manifest %+v, metrics.go %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", manifest.EndToEnd, endToEnd)
	same("per_layer", manifest.PerLayer, perLayer)
}
