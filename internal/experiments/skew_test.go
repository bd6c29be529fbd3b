package experiments

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"timebounds/internal/engine"
)

// skewTestOptions is a small deterministic sweep: two exponents, three
// loads, a few hundred streamed ops per cell.
func skewTestOptions() SkewSweepOptions {
	return SkewSweepOptions{
		Params:      DefaultParams(3),
		Seed:        1,
		Shards:      4,
		Exponents:   []float64{1.1, 2.0},
		Loads:       []float64{60, 600, 6000},
		OpsPerPoint: 120,
	}
}

// TestSkewSweepCSVGolden pins the -sweep skew CSV byte for byte, exactly
// like the load-sweep golden: the streamed schedules, per-shard runs, and
// knee scan are deterministic in model time. Regenerate with
// -update-golden after an intentional change.
func TestSkewSweepCSVGolden(t *testing.T) {
	rep, err := SkewSweep(context.Background(), skewTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	got := SkewSweepCSV(rep)
	path := filepath.Join("testdata", "skew_sweep.golden.csv")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run `go test ./internal/experiments -run SkewSweepCSVGolden -update-golden` to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("CSV diverged from golden %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
	for _, col := range []string{"zipf_exponent", "load_ops_per_sec", "imbalance", "hottest_shard", "worst_p99_ns", "bound_ns", "saturated", "knee"} {
		if !strings.Contains(got, col) {
			t.Errorf("CSV header missing %q", col)
		}
	}
	if len(rep.Points) != 6 {
		t.Fatalf("sweep measured %d cells, want 2 exponents × 3 loads", len(rep.Points))
	}
	if len(rep.Knees) != 2 {
		t.Fatalf("sweep produced %d knee rows, want one per exponent", len(rep.Knees))
	}
}

// TestSkewSweepSkewConcentratesLoad checks the physics the sweep exists
// to show: at a higher Zipf exponent the range partition's hottest shard
// carries a larger share of the traffic.
func TestSkewSweepSkewConcentratesLoad(t *testing.T) {
	rep, err := SkewSweep(context.Background(), skewTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	byExp := map[float64]float64{}
	for _, pt := range rep.Points {
		if pt.Imbalance > byExp[pt.Exponent] {
			byExp[pt.Exponent] = pt.Imbalance
		}
	}
	if byExp[2.0] <= byExp[1.1] {
		t.Fatalf("imbalance did not grow with the exponent: %v", byExp)
	}
}

// TestSkewSweepDeterministic: identical options ⇒ identical CSV bytes,
// the property the golden test relies on.
func TestSkewSweepDeterministic(t *testing.T) {
	a, err := SkewSweep(context.Background(), skewTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := SkewSweep(context.Background(), skewTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if SkewSweepCSV(a) != SkewSweepCSV(b) {
		t.Fatal("skew sweep not deterministic")
	}
}

func TestSkewSweepOptionValidation(t *testing.T) {
	opt := skewTestOptions()
	opt.Loads = []float64{100, 50}
	if _, err := SkewSweep(context.Background(), opt); err == nil {
		t.Error("descending load axis accepted")
	}
}

// unbuildable is Algorithm 1 by name and bound, but no run of it builds.
type unbuildable struct{ engine.Algorithm1 }

func (unbuildable) Build(engine.BuildConfig) (engine.Instance, error) {
	return nil, errors.New("no cluster")
}

// TestSkewSweepRejectsFailingStore: a store whose shards fail is no
// measured point; the sweep returns the store's failure, naming the
// point, instead of a row.
func TestSkewSweepRejectsFailingStore(t *testing.T) {
	opt := skewTestOptions()
	opt.Backend = unbuildable{}
	measured := 0
	opt.OnPoint = func(SkewCell) { measured++ }
	rep, err := SkewSweep(context.Background(), opt)
	if err == nil || !strings.Contains(err.Error(), "s=1.1 at 60.0 ops/s") || !strings.Contains(err.Error(), "no cluster") {
		t.Fatalf("err = %v, want the first point's shard build failure", err)
	}
	if measured != 0 || len(rep.Points) != 0 {
		t.Fatalf("failing store measured as %d points: %+v", measured, rep.Points)
	}
}
