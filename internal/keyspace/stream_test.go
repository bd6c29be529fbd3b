package keyspace

import (
	"math/rand"
	"strconv"
	"testing"

	"timebounds/internal/model"
	"timebounds/internal/types"
	"timebounds/internal/workload"
)

// referenceStream is Stream with every key rendered by Space.Key and
// every put value concatenated, op by op: the strings share no storage.
func referenceStream(w Workload, p model.Params, seed int64) []workload.KeyOp {
	rng := rand.New(rand.NewSource(seed))
	tenants := w.Tenants
	if len(tenants) == 0 {
		tenants = []Tenant{{Name: "default", Weight: 1}}
	}
	samplers := make([]func() int, len(tenants))
	total := 0
	for i, t := range tenants {
		m := t.Model
		if m == nil {
			m = w.model()
		}
		samplers[i] = m.Sampler(w.Space.N, rng)
		total += t.Weight
	}
	mix := w.Mix.resolved()
	at, spacing := w.resolvedTiming(p)
	ops := make([]workload.KeyOp, w.Ops)
	for i := range ops {
		ti := 0
		if len(tenants) > 1 {
			pick := rng.Intn(total)
			for j, t := range tenants {
				if pick < t.Weight {
					ti = j
					break
				}
				pick -= t.Weight
			}
		}
		op := workload.KeyOp{At: at, Proc: model.ProcessID(i % p.N), Key: w.Space.Key(samplers[ti]())}
		switch pick := rng.Intn(mix.total()); {
		case pick < mix.Put:
			op.Kind, op.Value = types.OpPut, tenants[ti].Name+"#"+strconv.Itoa(i)
		case pick < mix.Put+mix.Get:
			op.Kind = types.OpDictGet
		default:
			op.Kind = types.OpDelete
		}
		ops[i] = op
		at += spacing
	}
	return ops
}

// TestStreamMatchesReference holds the interned stream to the reference,
// field by field, for one- and two-tenant workloads over several seeds:
// once as each operation is handed out, and again after the stream has
// filled several text chunks, so a chunk reused or rewritten under keys
// and values already handed out shows up as a changed string.
func TestStreamMatchesReference(t *testing.T) {
	p := testParams()
	space := Space{N: 120_000}
	for _, w := range []Workload{
		{Space: space, Model: Zipf{S: 1.25}, Ops: 2400},
		{Space: space, Ops: 2400, Tenants: []Tenant{
			{Name: "web", Weight: 3, Model: Zipf{S: 1.1}},
			{Name: "batch-jobs", Weight: 1, Model: HotSet{Hot: 40}},
		}},
	} {
		for seed := int64(1); seed <= 4; seed++ {
			want := referenceStream(w, p, seed)
			var got []workload.KeyOp
			text := 0 // bytes of distinct keys and of values handed out
			seen := make(map[string]bool)
			err := w.Stream(p, seed, func(op workload.KeyOp) error {
				if i := len(got); op != want[i] {
					t.Fatalf("%s seed %d op %d = %+v, want %+v", w.label(), seed, i, op, want[i])
				}
				if !seen[op.Key] {
					seen[op.Key] = true
					text += len(op.Key)
				}
				if v, ok := op.Value.(string); ok {
					text += len(v)
				}
				got = append(got, op)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if text < 3*textChunk {
				t.Fatalf("%s seed %d: %d bytes of text fill fewer than three chunks", w.label(), seed, text)
			}
			if len(got) != len(want) {
				t.Fatalf("%s seed %d: %d ops, want %d", w.label(), seed, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s seed %d: op %d changed to %+v after the stream moved on, want %+v",
						w.label(), seed, i, got[i], want[i])
				}
			}
		}
	}
}
