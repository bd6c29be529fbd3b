package workload

import (
	"fmt"
	"hash/fnv"

	"timebounds/internal/model"
	"timebounds/internal/spec"
	"timebounds/internal/types"
)

// A Sharded spec is the keyed analogue of Spec: a key space plus a per-key
// operation stream, partitioned into shards. ForEachOp generates the
// keyed operations and Placement says which shard each key runs on; the
// engine buckets them into one ordinary explicit Spec per shard over a
// dictionary object, runs one isolated sub-cluster per shard and composes
// the per-shard verdicts (linearizability is local, so the composed store
// is linearizable iff every shard is — see internal/check.Compose).
type Sharded struct {
	// Name labels the workload in reports ("" is fine).
	Name string
	// Keys is the key space. May be left empty when Explicit is set, in
	// which case the key space is derived from the explicit operations in
	// first-appearance order; when set, an explicit operation on any other
	// key is rejected, whatever partitions the run.
	Keys []string
	// Shards is the number of sub-clusters the key space is partitioned
	// into, clamped to the key space; 0 means one shard per key (the
	// finest partition). Placement maps keys to shards; an engine
	// migration plan's partition map replaces it.
	Shards int
	// PerKey generates each key's operation stream. Its Mix defaults to a
	// put/get/delete mix on the key itself; Explicit inside PerKey is
	// rejected (use the Sharded.Explicit hook for handcrafted schedules).
	PerKey Spec
	// Explicit, when non-empty, is the complete keyed schedule and PerKey
	// is ignored — the hook for handcrafted stores (examples/kvstore).
	Explicit []KeyOp
	// StreamOps, when set, generates the complete keyed schedule as a
	// stream — fn is called once per operation, in generation order — and
	// Keys, PerKey and Explicit must be unset. This is the constant-memory
	// path for planet-scale key universes (internal/keyspace): expansion
	// memory is bounded by the operation count and the keys actually
	// touched, never by the universe size. The stream must be a pure
	// function of (p, seed).
	StreamOps func(p model.Params, seed int64, fn func(op KeyOp) error) error
	// KeySpace is the size of the streaming key universe, used to clamp
	// the shard count; required (> 0) when StreamOps is set.
	KeySpace int
}

// KeyOp is one keyed operation of a sharded workload: a put, get, or
// delete on Key. It is translated into the equivalent dictionary
// invocation of the key's shard.
type KeyOp struct {
	At   model.Time
	Proc model.ProcessID
	// Kind is a dictionary operation kind: types.OpPut, types.OpDictGet,
	// or types.OpDelete.
	Kind spec.OpKind
	Key  string
	// Value is the value written (OpPut only).
	Value spec.Value
}

// Put returns a keyed write of key=value by proc at the given time.
func Put(at model.Time, proc model.ProcessID, key string, value spec.Value) KeyOp {
	return KeyOp{At: at, Proc: proc, Kind: types.OpPut, Key: key, Value: value}
}

// Get returns a keyed read of key by proc at the given time.
func Get(at model.Time, proc model.ProcessID, key string) KeyOp {
	return KeyOp{At: at, Proc: proc, Kind: types.OpDictGet, Key: key}
}

// Del returns a keyed delete of key by proc at the given time.
func Del(at model.Time, proc model.ProcessID, key string) KeyOp {
	return KeyOp{At: at, Proc: proc, Kind: types.OpDelete, Key: key}
}

// keyOpOf reverses invocation for the known key: it lifts a per-key
// generated dictionary invocation back into keyed form, so every schedule
// mode can be walked through one KeyOp iterator (ForEachOp).
func keyOpOf(inv Invocation, key string) (KeyOp, error) {
	op := KeyOp{At: inv.At, Proc: inv.Proc, Kind: inv.Kind, Key: key}
	switch inv.Kind {
	case types.OpPut:
		kv, ok := inv.Arg.(types.KV)
		if !ok {
			return KeyOp{}, fmt.Errorf("workload: per-key put on %q carries %T, want types.KV", key, inv.Arg)
		}
		op.Value = kv.Value
	case types.OpDictGet, types.OpDelete:
	default:
		return KeyOp{}, fmt.Errorf("workload: per-key schedule emitted non-dictionary op %q on %q", inv.Kind, key)
	}
	return op, nil
}

// Invocation translates the keyed operation into its dictionary form, the
// invocation its shard runs.
func (op KeyOp) Invocation() (Invocation, error) {
	inv := Invocation{At: op.At, Proc: op.Proc, Kind: op.Kind}
	switch op.Kind {
	case types.OpPut:
		inv.Arg = types.KV{Key: op.Key, Value: op.Value}
	case types.OpDictGet, types.OpDelete:
		inv.Arg = op.Key
	default:
		return Invocation{}, fmt.Errorf("workload: keyed op kind %q is not a dictionary operation (want put|dict-get|delete)", op.Kind)
	}
	return inv, nil
}

// keySpace returns the effective key space: Keys, or — when empty — the
// distinct explicit keys in first-appearance order.
func (s Sharded) keySpace() ([]string, error) {
	keys := s.Keys
	if len(keys) == 0 {
		seen := make(map[string]bool)
		for _, op := range s.Explicit {
			if !seen[op.Key] {
				seen[op.Key] = true
				keys = append(keys, op.Key)
			}
		}
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("workload: sharded spec %q has no keys and no explicit operations", s.Name)
	}
	seen := make(map[string]bool, len(keys))
	for _, k := range keys {
		if seen[k] {
			return nil, fmt.Errorf("workload: sharded spec %q declares key %q twice", s.Name, k)
		}
		seen[k] = true
	}
	if len(s.Keys) > 0 {
		for _, op := range s.Explicit {
			if !seen[op.Key] {
				return nil, fmt.Errorf("workload: explicit operation on key %q outside the declared key space", op.Key)
			}
		}
	}
	return keys, nil
}

// Placement is the spec's static partition: the shard count, and the
// shard of each key. A finest split (Shards 0, or at least one shard per
// key) gives each key the shard at its key-space position, where hashing
// could only collide; a coarser one hashes the key with FNV-1a, once per
// touched key. A streaming spec always hashes, over Shards clamped to
// KeySpace, and must set Shards: one shard per key would materialize the
// universe.
func (s Sharded) Placement() (int, func(key string) int, error) {
	shards := s.Shards
	if s.StreamOps != nil {
		if shards <= 0 {
			return 0, nil, fmt.Errorf("workload: streaming sharded spec %q needs explicit Shards ≥ 1", s.Name)
		}
		if err := s.streaming(); err != nil {
			return 0, nil, err
		}
		shards = min(shards, s.KeySpace)
	} else {
		keys, err := s.keySpace()
		if err != nil {
			return 0, nil, err
		}
		if shards <= 0 || shards >= len(keys) {
			pos := make(map[string]int, len(keys))
			for i, k := range keys {
				pos[k] = i
			}
			return len(keys), func(key string) int { return pos[key] }, nil
		}
	}
	memo := make(map[string]int)
	return shards, func(key string) int {
		idx, ok := memo[key]
		if !ok {
			h := fnv.New32a()
			h.Write([]byte(key))
			idx = int(h.Sum32() % uint32(shards))
			memo[key] = idx
		}
		return idx
	}, nil
}

// keySeed derives the per-key schedule seed: independent streams per key,
// deterministic in (seed, key) only — never in the partition — so the
// per-key streams (and thus the merged shard schedules) are a pure
// function of the spec and seed.
func keySeed(seed int64, key string) int64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return seed ^ int64(h.Sum64())
}

// keyMix is the default per-key operation mix: a write-biased
// put/get/delete stream on the key, which is boxed once for the mix.
func keyMix(key string) OpMix {
	boxed := spec.Value(key)
	keyArg := func(int) spec.Value { return boxed }
	return OpMix{
		{Kind: types.OpPut, Weight: 4, Arg: func(i int) spec.Value { return types.KV{Key: key, Value: spec.BoxInt(i)} }},
		{Kind: types.OpDictGet, Weight: 3, Arg: keyArg},
		{Kind: types.OpDelete, Weight: 1, Arg: keyArg},
	}
}

// streaming reports why a StreamOps spec cannot stream, or nil.
func (s Sharded) streaming() error {
	if len(s.Keys) > 0 || len(s.Explicit) > 0 {
		return fmt.Errorf("workload: sharded spec %q sets StreamOps alongside Keys/Explicit; a streaming spec is the whole schedule", s.Name)
	}
	if s.KeySpace <= 0 {
		return fmt.Errorf("workload: streaming sharded spec %q needs KeySpace > 0", s.Name)
	}
	return nil
}

// ForEachOp walks every keyed operation of the spec in generation order —
// the ord tie-break a shard schedule sorts with: explicit operations in
// slice order, per-key generated streams key by key, or the StreamOps
// stream. It is the one generator of a sharded run's operations, checks
// the key space once for every route that reads it, and never
// materializes more than one key's schedule at a time.
func (s Sharded) ForEachOp(p model.Params, seed int64, fn func(op KeyOp, ord int) error) error {
	if s.StreamOps != nil {
		if err := s.streaming(); err != nil {
			return err
		}
		ord := 0
		return s.StreamOps(p, seed, func(op KeyOp) error {
			err := fn(op, ord)
			ord++
			return err
		})
	}
	keys, err := s.keySpace()
	if err != nil {
		return err
	}
	if len(s.Explicit) > 0 {
		for ord, op := range s.Explicit {
			if err := fn(op, ord); err != nil {
				return err
			}
		}
		return nil
	}
	if len(s.PerKey.Explicit) > 0 {
		return fmt.Errorf("workload: sharded spec %q sets PerKey.Explicit; use Sharded.Explicit for handcrafted schedules", s.Name)
	}
	ord := 0
	for _, key := range keys {
		per := s.PerKey
		if per.Mix == nil && len(per.PerProcess) == 0 {
			per.Mix = keyMix(key)
		}
		per = per.WithDefaults(p, nil)
		sched, err := per.Schedule(p, keySeed(seed, key))
		if err != nil {
			return fmt.Errorf("workload: key %q: %w", key, err)
		}
		for _, inv := range sched.Invocations {
			op, err := keyOpOf(inv, key)
			if err != nil {
				return err
			}
			if err := fn(op, ord); err != nil {
				return err
			}
			ord++
		}
	}
	return nil
}
