package keyspace

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"timebounds/internal/model"
	"timebounds/internal/spec"
	"timebounds/internal/types"
	"timebounds/internal/workload"
)

func testParams() model.Params {
	return model.Params{N: 4, D: 10 * time.Millisecond, U: 4 * time.Millisecond, Epsilon: time.Millisecond}
}

func TestSpaceNaming(t *testing.T) {
	s := Space{N: 120_000}
	if got := s.Width(); got != 6 {
		t.Fatalf("Width() = %d, want 6", got)
	}
	if got := s.Key(7); got != "key-000007" {
		t.Fatalf("Key(7) = %q", got)
	}
	if got := s.Key(119_999); got != "key-119999" {
		t.Fatalf("Key(119999) = %q", got)
	}
	// Zero-padding makes lexicographic order equal index order.
	if s.Key(99_999) >= s.Key(100_000) {
		t.Fatalf("lexicographic order broken: %q >= %q", s.Key(99_999), s.Key(100_000))
	}
	for _, i := range []int{0, 1, 99, 100_000, 119_999} {
		idx, err := s.Index(s.Key(i))
		if err != nil || idx != i {
			t.Fatalf("Index(Key(%d)) = %d, %v", i, idx, err)
		}
	}
	for _, bad := range []string{"", "key-", "other-0001", "key-120000", "key--1", "key-x"} {
		if _, err := s.Index(bad); err == nil {
			t.Errorf("Index(%q) accepted", bad)
		}
	}
	if err := (Space{}).Validate(); err == nil {
		t.Fatal("empty space validated")
	}
}

func TestSpacePrefix(t *testing.T) {
	s := Space{N: 10, Prefix: "user:"}
	if got := s.Key(3); got != "user:3" {
		t.Fatalf("Key(3) = %q", got)
	}
	if idx, err := s.Index("user:3"); err != nil || idx != 3 {
		t.Fatalf("Index = %d, %v", idx, err)
	}
}

// TestSpaceKeyMatchesFmt pins Key byte for byte against the fmt form it
// replaced, at the widths' edges (N-1 = 9 is one digit, 10 is two) and
// both ends of the range, with the default and a custom prefix.
func TestSpaceKeyMatchesFmt(t *testing.T) {
	for _, n := range []int{1, 10, 11, 120_000} {
		for _, prefix := range []string{"", "user:"} {
			s := Space{N: n, Prefix: prefix}
			for _, i := range []int{0, n - 1} {
				want := fmt.Sprintf("%s%0*d", s.prefix(), s.Width(), i)
				if got := s.Key(i); got != want {
					t.Errorf("Space{N: %d, Prefix: %q}.Key(%d) = %q, want %q", n, prefix, i, got, want)
				}
			}
		}
	}
}

// sampleCounts draws k samples from the model over an n-key space.
func sampleCounts(m Model, n, k int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	sample := m.Sampler(n, rng)
	counts := make([]int, n)
	for i := 0; i < k; i++ {
		counts[sample()]++
	}
	return counts
}

func TestModelsDeterministic(t *testing.T) {
	for _, m := range []Model{Zipf{}, Zipf{S: 1.5, V: 2}, HotSet{}, HotSet{Hot: 5, Weight: 0.5}, Uniform{}} {
		a := sampleCounts(m, 1000, 5000, 42)
		b := sampleCounts(m, 1000, 5000, 42)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: sample sequence not deterministic at key %d", m.Name(), i)
			}
		}
	}
}

func TestZipfSkew(t *testing.T) {
	counts := sampleCounts(Zipf{S: 1.2}, 100_000, 20_000, 1)
	head := 0
	for i := 0; i < 100; i++ {
		head += counts[i]
	}
	// Under zipf(1.2) the 100 lowest-ranked keys of a 100k universe carry
	// well over half the traffic; uniform would give them 0.1%.
	if head < 10_000 {
		t.Fatalf("zipf head traffic %d/20000; want skew toward low indices", head)
	}
}

func TestHotSetSkew(t *testing.T) {
	counts := sampleCounts(HotSet{Hot: 10, Weight: 0.9}, 10_000, 20_000, 1)
	hot := 0
	for i := 0; i < 10; i++ {
		hot += counts[i]
	}
	if hot < 17_000 || hot > 20_000 {
		t.Fatalf("hot-set traffic %d/20000; want ≈ 18000", hot)
	}
}

func TestModelNames(t *testing.T) {
	for name, m := range map[string]Model{
		"zipf(1.2)":     Zipf{},
		"zipf(1.5)":     Zipf{S: 1.5},
		"hotset(0@0.9)": HotSet{},
		"hotset(5@0.5)": HotSet{Hot: 5, Weight: 0.5},
		"uniform":       Uniform{},
	} {
		if got := m.Name(); got != name {
			t.Errorf("Name() = %q, want %q", got, name)
		}
	}
}

func TestWorkloadStreamDeterministic(t *testing.T) {
	w := Workload{Space: Space{N: 50_000}, Model: Zipf{}, Ops: 400}
	p := testParams()
	collect := func() []workload.KeyOp {
		var ops []workload.KeyOp
		if err := w.Stream(p, 7, func(op workload.KeyOp) error {
			ops = append(ops, op)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return ops
	}
	a, b := collect(), collect()
	if len(a) != 400 {
		t.Fatalf("stream emitted %d ops, want 400", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("stream not deterministic at op %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestWorkloadStreamShape(t *testing.T) {
	w := Workload{Space: Space{N: 1000}, Ops: 240}
	p := testParams()
	start, spacing := w.resolvedTiming(p)
	if start != p.D {
		t.Fatalf("default start = %v, want d", start)
	}
	if spacing != 2*p.D/model.Time(p.N) {
		t.Fatalf("default spacing = %v, want 2d/n", spacing)
	}
	i := 0
	kinds := map[spec.OpKind]int{}
	err := w.Stream(p, 3, func(op workload.KeyOp) error {
		if want := start + model.Time(i)*spacing; op.At != want {
			t.Fatalf("op %d at %v, want %v", i, op.At, want)
		}
		if op.Proc != model.ProcessID(i%p.N) {
			t.Fatalf("op %d proc %d, want round-robin %d", i, op.Proc, i%p.N)
		}
		if op.Kind == types.OpPut {
			v, ok := op.Value.(string)
			if !ok || !strings.HasPrefix(v, "default#") {
				t.Fatalf("op %d put value %v; want tenant-tagged string", i, op.Value)
			}
		} else if op.Value != nil {
			t.Fatalf("op %d %v carries a value", i, op.Kind)
		}
		kinds[op.Kind]++
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Default mix 4/3/1: every kind should appear.
	for _, k := range []spec.OpKind{types.OpPut, types.OpDictGet, types.OpDelete} {
		if kinds[k] == 0 {
			t.Fatalf("mix never produced %v (got %v)", k, kinds)
		}
	}
	if kinds[types.OpPut] <= kinds[types.OpDelete] {
		t.Fatalf("write-biased mix inverted: %v", kinds)
	}
}

func TestWorkloadTenants(t *testing.T) {
	w := Workload{
		Space: Space{N: 1000},
		Ops:   600,
		Tenants: []Tenant{
			{Name: "web", Weight: 3, Model: HotSet{Hot: 2, Weight: 0.99}},
			{Name: "batch", Weight: 1, Model: Uniform{}},
		},
		Mix: MixWeights{Put: 1}, // all writes, so every op carries provenance
	}
	byTenant := map[string]int{}
	err := w.Stream(testParams(), 11, func(op workload.KeyOp) error {
		name, _, ok := strings.Cut(op.Value.(string), "#")
		if !ok {
			t.Fatalf("value %v lacks tenant tag", op.Value)
		}
		byTenant[name]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if byTenant["web"]+byTenant["batch"] != 600 {
		t.Fatalf("tenant split %v does not cover the stream", byTenant)
	}
	// 3:1 weights; allow generous sampling slack.
	if byTenant["web"] < 380 || byTenant["batch"] < 80 {
		t.Fatalf("tenant weights not respected: %v", byTenant)
	}
}

func TestWorkloadValidate(t *testing.T) {
	base := Workload{Space: Space{N: 10}, Ops: 5}
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, w := range map[string]Workload{
		"no space":    {Ops: 5},
		"no ops":      {Space: Space{N: 10}},
		"neg spacing": {Space: Space{N: 10}, Ops: 5, Spacing: -1},
		"zero weight": {Space: Space{N: 10}, Ops: 5, Tenants: []Tenant{{Name: "t"}}},
		"zipf s=1":    {Space: Space{N: 10}, Ops: 5, Model: Zipf{S: 1}},
		"zipf s<0":    {Space: Space{N: 10}, Ops: 5, Model: Zipf{S: -1}},
		"zipf v<1":    {Space: Space{N: 10}, Ops: 5, Model: Zipf{S: 1.2, V: 0.5}},
		"tenant zipf": {Space: Space{N: 10}, Ops: 5, Tenants: []Tenant{{Name: "t", Weight: 1, Model: Zipf{S: 0.9}}}},
	} {
		if err := w.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
	for _, w := range []Workload{{Ops: 5}, {Space: Space{N: 10}, Ops: 5, Model: Zipf{S: -1}}} {
		if err := w.Stream(testParams(), 1, func(workload.KeyOp) error { return nil }); err == nil {
			t.Errorf("Stream accepted invalid workload %+v", w)
		}
	}
}

func TestWorkloadRate(t *testing.T) {
	w := Workload{Space: Space{N: 10}, Ops: 5, Spacing: time.Millisecond}
	if got := w.Rate(testParams()); got != 1000 {
		t.Fatalf("Rate = %v, want 1000 ops/sec", got)
	}
}

func TestWorkloadSharded(t *testing.T) {
	w := Workload{Space: Space{N: 5000}, Model: Zipf{}, Ops: 120}
	s := w.Sharded(8)
	if s.Name != "zipf(1.2)/5000keys" || s.Shards != 8 || s.KeySpace != 5000 {
		t.Fatalf("Sharded spec = %+v", s)
	}
	if s.StreamOps == nil {
		t.Fatal("Sharded spec has no stream")
	}
	n := 0
	if err := s.StreamOps(testParams(), 1, func(workload.KeyOp) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 120 {
		t.Fatalf("stream emitted %d ops, want 120", n)
	}
}
