// Package keyspace models planet-scale keyed workloads: popularity
// distributions (Zipf, hot-set, uniform) over key universes of 10^5–10^6
// keys, multi-tenant traffic mixes with per-tenant rates, and live shard
// rebalancing — a range-based versioned PartitionMap plus a Migration
// schedule with drain-then-cutover semantics that the engine executes and
// verifies across the handoff (internal/engine, ShardedScenario.Plan).
//
// The package never materializes the key universe: a Workload emits a
// workload.Sharded whose schedule is a stream — memory is bounded by the
// operation count, the distinct keys the stream touches and the
// partition's range table, not by Space.N — which is what makes the
// zipf-migrate benchmark workload feasible at ≥100k keys.
package keyspace

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"timebounds/internal/model"
	"timebounds/internal/types"
	"timebounds/internal/workload"
)

// Space is a sized key universe with deterministic zero-padded names, so
// lexicographic key order equals index order and range partitioning over
// strings behaves like range partitioning over indices.
type Space struct {
	// N is the universe size; keys are indexed 0..N-1.
	N int
	// Prefix prepends every key name; empty means "key-".
	Prefix string
}

// prefix returns the effective name prefix.
func (s Space) prefix() string {
	if s.Prefix == "" {
		return "key-"
	}
	return s.Prefix
}

// Width returns the zero-padding width: enough digits for N-1.
func (s Space) Width() int {
	w := 1
	for n := s.N - 1; n >= 10; n /= 10 {
		w++
	}
	return w
}

// Key returns the name of the i-th key: the prefix, then i zero-padded to
// Width digits — fmt's "%s%0*d", rendered into one sized buffer.
func (s Space) Key(i int) string {
	if i < 0 {
		return fmt.Sprintf("%s%0*d", s.prefix(), s.Width(), i)
	}
	var b strings.Builder
	return s.writeKey(&b, i)
}

// writeKey writes the name of the i-th key (i ≥ 0) to b and returns it.
func (s Space) writeKey(b *strings.Builder, i int) string {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(i), 10)
	return writeName(b, s.prefix(), '0', s.Width()-len(d), d)
}

// writeName writes head, n copies of fill and digits to b, growing it by
// their length first, and returns them as one string: a substring of b's
// buffer, which b never writes over.
func writeName(b *strings.Builder, head string, fill byte, n int, digits []byte) string {
	n = max(n, 0)
	start := b.Len()
	b.Grow(len(head) + n + len(digits))
	b.WriteString(head)
	for range n {
		b.WriteByte(fill)
	}
	b.Write(digits)
	return b.String()[start:]
}

// Index parses a key name back to its index, rejecting names outside the
// space.
func (s Space) Index(key string) (int, error) {
	p := s.prefix()
	if len(key) <= len(p) || key[:len(p)] != p {
		return 0, fmt.Errorf("keyspace: key %q is not in space %q", key, p)
	}
	i, err := strconv.Atoi(key[len(p):])
	if err != nil || i < 0 || i >= s.N {
		return 0, fmt.Errorf("keyspace: key %q indexes outside the %d-key space", key, s.N)
	}
	return i, nil
}

// Validate rejects empty universes.
func (s Space) Validate() error {
	if s.N <= 0 {
		return fmt.Errorf("keyspace: space has %d keys; want ≥ 1", s.N)
	}
	return nil
}

// A Model is a popularity distribution over a key universe. Samplers are
// pure functions of their seeded source, so a workload's key sequence is
// fully determined by (model, space, seed).
type Model interface {
	// Name labels the model in workload names ("zipf(1.2)").
	Name() string
	// Sampler returns a deterministic key-index sampler over [0, n) drawing
	// from the given seeded source.
	Sampler(n int, rng *rand.Rand) func() int
}

// Zipf is the power-law popularity model: key i is drawn with probability
// ∝ (V+i)^(-S). The rank-ordered keys are the index-ordered keys, so under
// range partitioning the lowest range is the hottest shard — the shape the
// skew sweeps and hot-split planner exercise.
type Zipf struct {
	// S is the exponent (> 1); 0 resolves to 1.2.
	S float64
	// V is the offset (≥ 1); 0 resolves to 1.
	V float64
}

// Name implements Model.
func (z Zipf) Name() string { return fmt.Sprintf("zipf(%g)", z.exponent()) }

func (z Zipf) exponent() float64 {
	if z.S == 0 {
		return 1.2
	}
	return z.S
}

func (z Zipf) offset() float64 {
	if z.V == 0 {
		return 1
	}
	return z.V
}

// validate rejects what rand.NewZipf cannot sample (it returns nil for
// them): an exponent S ≤ 1 or an offset V < 1, once resolved.
func (z Zipf) validate() error {
	if s := z.exponent(); !(s > 1) {
		return fmt.Errorf("zipf exponent S=%g; want > 1", s)
	}
	if v := z.offset(); !(v >= 1) {
		return fmt.Errorf("zipf offset V=%g; want ≥ 1", v)
	}
	return nil
}

// Sampler implements Model via the seeded rand.Zipf generator.
func (z Zipf) Sampler(n int, rng *rand.Rand) func() int {
	gen := rand.NewZipf(rng, z.exponent(), z.offset(), uint64(n-1))
	return func() int { return int(gen.Uint64()) }
}

// HotSet concentrates Weight of the traffic on the Hot lowest-indexed keys
// and spreads the rest uniformly — the "celebrity keys" shape.
type HotSet struct {
	// Hot is the hot-set size; 0 resolves to max(1, n/1000).
	Hot int
	// Weight is the probability of drawing from the hot set; 0 resolves
	// to 0.9.
	Weight float64
}

// Name implements Model.
func (h HotSet) Name() string { return fmt.Sprintf("hotset(%d@%g)", h.Hot, h.weight()) }

func (h HotSet) weight() float64 {
	if h.Weight == 0 {
		return 0.9
	}
	return h.Weight
}

// Sampler implements Model.
func (h HotSet) Sampler(n int, rng *rand.Rand) func() int {
	hot := h.Hot
	if hot <= 0 {
		hot = n / 1000
		if hot < 1 {
			hot = 1
		}
	}
	if hot > n {
		hot = n
	}
	w := h.weight()
	return func() int {
		if rng.Float64() < w {
			return rng.Intn(hot)
		}
		return rng.Intn(n)
	}
}

// Uniform draws every key with equal probability — the skew-free baseline.
type Uniform struct{}

// Name implements Model.
func (Uniform) Name() string { return "uniform" }

// Sampler implements Model.
func (Uniform) Sampler(n int, rng *rand.Rand) func() int {
	return func() int { return rng.Intn(n) }
}

// Tenant is one traffic class of a multi-tenant mix: a named share of the
// operation stream with its own popularity model.
type Tenant struct {
	// Name labels the tenant (value provenance in generated writes).
	Name string
	// Weight is the tenant's relative share of the stream (> 0).
	Weight int
	// Model is the tenant's popularity model; nil inherits the workload's.
	Model Model
}

// MixWeights sets the put/get/delete ratio of generated keyed traffic.
// The zero value resolves to the write-biased 4/3/1 default.
type MixWeights struct {
	Put, Get, Del int
}

func (m MixWeights) resolved() MixWeights {
	if m.Put == 0 && m.Get == 0 && m.Del == 0 {
		return MixWeights{Put: 4, Get: 3, Del: 1}
	}
	return m
}

func (m MixWeights) total() int { return m.Put + m.Get + m.Del }

// Workload generates a keyed operation stream over a key universe: Ops
// open-loop arrivals spaced Spacing apart, each drawing a tenant (by
// weight), a key (from the tenant's popularity model), and an operation
// kind (from the put/get/delete mix). It emits a workload.Sharded whose
// schedule streams — constant memory in Space.N.
type Workload struct {
	// Name labels the workload in reports; empty derives one from the
	// model and space.
	Name string
	// Space is the key universe.
	Space Space
	// Model is the popularity distribution; nil means Uniform.
	Model Model
	// Tenants optionally split the stream into weighted traffic classes;
	// empty means one anonymous tenant on Model.
	Tenants []Tenant
	// Ops is the total number of operations generated (> 0).
	Ops int
	// Start is the first arrival instant; 0 resolves to d.
	Start model.Time
	// Spacing is the cluster-wide inter-arrival gap (offered load =
	// 1e9/Spacing ops/sec); 0 resolves to 2d/n, the closed-loop-equivalent
	// default.
	Spacing model.Time
	// Mix is the put/get/delete ratio; the zero value is 4/3/1.
	Mix MixWeights
}

// label returns the derived workload name.
func (w Workload) label() string {
	if w.Name != "" {
		return w.Name
	}
	return fmt.Sprintf("%s/%dkeys", w.model().Name(), w.Space.N)
}

func (w Workload) model() Model {
	if w.Model == nil {
		return Uniform{}
	}
	return w.Model
}

// Validate rejects unusable generator specs.
func (w Workload) Validate() error {
	if err := w.Space.Validate(); err != nil {
		return err
	}
	if w.Ops <= 0 {
		return fmt.Errorf("keyspace: workload %q generates %d ops; want ≥ 1", w.label(), w.Ops)
	}
	if w.Spacing < 0 {
		return fmt.Errorf("keyspace: workload %q spacing %v is negative", w.label(), w.Spacing)
	}
	if z, ok := w.model().(Zipf); ok {
		if err := z.validate(); err != nil {
			return fmt.Errorf("keyspace: workload %q: %w", w.label(), err)
		}
	}
	for _, t := range w.Tenants {
		if t.Weight <= 0 {
			return fmt.Errorf("keyspace: tenant %q weight %d; want > 0", t.Name, t.Weight)
		}
		if z, ok := t.Model.(Zipf); ok {
			if err := z.validate(); err != nil {
				return fmt.Errorf("keyspace: tenant %q: %w", t.Name, err)
			}
		}
	}
	return nil
}

// resolvedTiming fills Start and Spacing from the model parameters.
func (w Workload) resolvedTiming(p model.Params) (start, spacing model.Time) {
	start, spacing = w.Start, w.Spacing
	if start == 0 {
		start = p.D
	}
	if spacing == 0 {
		spacing = 2 * p.D / model.Time(p.N)
	}
	return start, spacing
}

// Rate returns the offered cluster-wide load in ops/sec implied by the
// spacing under params p.
func (w Workload) Rate(p model.Params) float64 {
	_, spacing := w.resolvedTiming(p)
	if spacing <= 0 {
		return 0
	}
	return 1e9 / float64(spacing)
}

// Stream calls fn for every generated keyed operation in arrival order.
// The sequence is a pure function of (workload, p, seed): one seeded
// source drives tenant choice, key choice, and kind choice. Memory is
// O(operations + distinct keys touched), never O(Space.N): each key is
// rendered once per stream, and the keys and put values are cut from
// shared text chunks (streamText), so a put costs one allocation (its
// value's box) and a get or delete none.
func (w Workload) Stream(p model.Params, seed int64, fn func(op workload.KeyOp) error) error {
	if err := w.Validate(); err != nil {
		return err
	}
	text := streamText{keys: make(map[int]string)}
	rng := rand.New(rand.NewSource(seed))
	tenants := w.Tenants
	if len(tenants) == 0 {
		tenants = []Tenant{{Name: "default", Weight: 1}}
	}
	samplers := make([]func() int, len(tenants))
	totalWeight := 0
	for i, t := range tenants {
		m := t.Model
		if m == nil {
			m = w.model()
		}
		samplers[i] = m.Sampler(w.Space.N, rng)
		totalWeight += t.Weight
	}
	mix := w.Mix.resolved()
	start, spacing := w.resolvedTiming(p)
	at := start
	for i := 0; i < w.Ops; i++ {
		ti := 0
		if len(tenants) > 1 {
			pick := rng.Intn(totalWeight)
			for j, t := range tenants {
				if pick < t.Weight {
					ti = j
					break
				}
				pick -= t.Weight
			}
		}
		proc := model.ProcessID(i % p.N)
		op := workload.KeyOp{At: at, Proc: proc, Key: text.key(w.Space, samplers[ti]())}
		switch pick := rng.Intn(mix.total()); {
		case pick < mix.Put:
			op.Kind = types.OpPut
			// Values carry tenant provenance and the op ordinal, so every
			// write is distinguishable and never nil (nil is the dict's
			// "absent" and the migration handoff's empty-slot marker).
			op.Value = text.value(tenants[ti].Name, i)
		case pick < mix.Put+mix.Get:
			op.Kind = types.OpDictGet
		default:
			op.Kind = types.OpDelete
		}
		if err := fn(op); err != nil {
			return err
		}
		at += spacing
	}
	return nil
}

// textChunk is the size of one streamText chunk: a 2 400-operation stream
// fills about five.
const textChunk = 4 << 10

// streamText renders one stream's keys and put values. Each distinct key
// index is rendered once (keys), and every string is cut from the current
// append-only chunk; a full chunk is dropped, never reused, so the strings
// handed out of it stay as they were.
type streamText struct {
	chunk strings.Builder
	keys  map[int]string
}

// key returns the name of s's i-th key, rendering it on first use.
func (t *streamText) key(s Space, i int) string {
	if k, ok := t.keys[i]; ok {
		return k
	}
	var k string
	if i < 0 {
		k = s.Key(i)
	} else {
		t.room(len(s.prefix()) + 20) // Width and i both have at most 19 digits
		k = s.writeKey(&t.chunk, i)
	}
	t.keys[i] = k
	return k
}

// value returns the put value of the i-th operation, tenant's: name#i.
func (t *streamText) value(tenant string, i int) string {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(i), 10)
	t.room(len(tenant) + 1 + len(d))
	return writeName(&t.chunk, tenant, '#', 1, d)
}

// room starts a new chunk unless the current one has n bytes free.
func (t *streamText) room(n int) {
	if t.chunk.Cap()-t.chunk.Len() < n {
		t.chunk = strings.Builder{}
		t.chunk.Grow(max(n, textChunk))
	}
}

// Sharded emits the engine-ready keyed spec: a workload.Sharded whose
// schedule is this generator's stream (constant memory in Space.N),
// partitioned into the given number of shards by FNV hash. For range
// partitioning and live rebalancing, pair the spec with a Plan on
// engine.ShardedScenario instead — the plan's partition map overrides
// hashing.
func (w Workload) Sharded(shards int) workload.Sharded {
	return workload.Sharded{
		Name:     w.label(),
		Shards:   shards,
		KeySpace: w.Space.N,
		StreamOps: func(p model.Params, seed int64, fn func(op workload.KeyOp) error) error {
			return w.Stream(p, seed, fn)
		},
	}
}

// KeyLoad pairs a key with its observed operation count — the unit of the
// hot-split planner's input and the ShardedReport's hot-key table.
type KeyLoad struct {
	Key string
	Ops int
}
