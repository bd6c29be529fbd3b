package check_test

import (
	"slices"
	"strconv"
	"testing"
	"time"

	"timebounds/internal/check"
	"timebounds/internal/history"
	"timebounds/internal/model"
	"timebounds/internal/spec"
	"timebounds/internal/types"
)

// fuzzMaxOps bounds decoded histories: the reference checker is the
// textbook exponential search, so the differential oracle needs small
// inputs to stay fast enough for fuzzing throughput.
const fuzzMaxOps = 12

// fuzzDataTypes are the specifications the fuzzer exercises; the first
// input byte selects one.
func fuzzDataTypes() []spec.DataType {
	return []spec.DataType{
		types.NewRegister(0),
		types.NewCounter(),
		types.NewQueue(),
		types.NewRMWRegister(0),
		types.NewDict(),
		types.NewSet(),
	}
}

// fuzzArg decodes the argument of one kind-operation from b; b&3 == 3
// leaves it nil. Dict put takes a KV and dict delete/get a string key
// (bits 2–3); set elements and dict values (bits 4–5) are ints, or their
// decimal strings when bit 6 is set, so int 1 and "1" meet in one state.
// Every other kind takes a small int.
func fuzzArg(kind spec.OpKind, b byte) spec.Value {
	if b&3 == 3 {
		return nil
	}
	key := string(rune('a' + int(b>>2)&3))
	var v spec.Value = int(b>>4) & 3
	if b&0x40 != 0 {
		v = strconv.Itoa(int(b>>4) & 3)
	}
	switch kind {
	case types.OpPut:
		return types.KV{Key: key, Value: v}
	case types.OpDelete, types.OpDictGet:
		return key
	case types.OpInsert, types.OpRemove, types.OpContains:
		return v
	}
	return int(b>>2) % 5
}

// decodeFuzzHistory deterministically decodes a bounded history — at most
// fuzzMaxOps operations over at most 4 processes — from raw fuzz bytes.
// Each operation consumes 4 bytes: process and kind, argument (fuzzArg),
// invocation gap, and duration (with reserved patterns for pending
// operations and corrupted returns, so both checker verdicts stay
// reachable). Returns are generated by replaying a running state in
// invocation order, which is a plausible-but-not-necessarily-linearizable
// assignment once operations overlap.
func decodeFuzzHistory(data []byte) (spec.DataType, *history.History) {
	if len(data) < 5 {
		return nil, nil
	}
	dts := fuzzDataTypes()
	dt := dts[int(data[0])%len(dts)]
	data = data[1:]
	kinds := dt.Kinds()
	ms := model.Time(time.Millisecond)

	h := history.New()
	state := dt.InitialState()
	now := model.Time(0)
	type resp struct {
		id  history.OpID
		ret spec.Value
		at  model.Time
	}
	var resps []resp
	for i := 0; i+4 <= len(data) && h.Len() < fuzzMaxOps; i += 4 {
		b0, b1, b2, b3 := data[i], data[i+1], data[i+2], data[i+3]
		proc := model.ProcessID(b0 & 3)
		kind := kinds[int(b0>>2)%len(kinds)]
		arg := fuzzArg(kind, b1)
		// A zero gap keeps the new invocation concurrent with open ones.
		now += model.Time(b2%4) * ms
		var ret spec.Value
		state, ret = dt.Apply(state, kind, arg)
		id := h.Invoke(proc, kind, arg, now)
		if b3 == 0xff {
			continue // leave pending forever
		}
		if b3%7 == 0 {
			ret = int(b3) // corrupt the return
		}
		resps = append(resps, resp{id: id, ret: ret, at: now + model.Time(1+b3%6)*ms})
	}
	if h.Len() == 0 {
		return nil, nil
	}
	for _, r := range resps {
		if err := h.Respond(r.id, r.ret, r.at); err != nil {
			panic(err) // decode emits at ≥ invoke by construction
		}
	}
	return dt, h
}

// certifyFuzz gives h's records certificate keys chosen by mode. The base
// order is the reference witness followed by every operation it leaves
// out, in invocation order (invocation order alone when the reference
// rejects). Mode%4 == 0 keys nothing; 1 keys the base order as update
// stamps; 2 does so with the neighbours at mode>>2 swapped; 3 restates the
// base order as alternating updates and accessors.
func certifyFuzz(h *history.History, ref check.Result, mode byte) {
	if mode%4 == 0 {
		return
	}
	order := slices.Clone(ref.Witness)
	for _, op := range h.Ops() {
		if !slices.Contains(order, op.ID) {
			order = append(order, op.ID)
		}
	}
	if j := int(mode>>2) % len(order); mode%4 == 2 && j+1 < len(order) {
		order[j], order[j+1] = order[j+1], order[j]
	}
	updates := 0
	for pos, id := range order {
		if mode%4 == 3 && pos%2 == 1 {
			h.Certify(id, history.AccessorCert(updates))
			continue
		}
		h.Certify(id, history.UpdateCert(model.Time(pos)))
		updates++
	}
}

// FuzzCheckIslands is the differential fuzz harness over the checker's
// execution shapes: for every decoded history the island-decomposed search
// (sequential and worker-parallel with a shared cache) and the
// whole-history search must return the verdict of the textbook Wing–Gong
// reference, and every positive verdict must carry a replayable witness.
// A byte the decoder leaves over at the end keys the records
// (certifyFuzz); the checker may take a certificate only where the
// reference linearizes and nothing is pending. The keys go on a second
// decode of the input, so the searches always run on the unkeyed history.
// The committed certificate-* seeds hold a certificate that is a witness,
// one that breaks real time, and one over a pending write.
func FuzzCheckIslands(f *testing.F) {
	// Seeds cover each data type plus shapes that exercise the interesting
	// paths: sequential fast path, overlap, pending ops, corrupted returns
	// (byte%7==0 → non-linearizable), and multi-island histories. The
	// dict and set seeds — the fingerprinted identity path — are committed
	// under testdata/fuzz/FuzzCheckIslands.
	f.Add([]byte{0, 0x00, 0x04, 1, 1, 0x41, 0x08, 1, 2})                   // register: write then read, sequential
	f.Add([]byte{1, 0x04, 0x08, 0, 3, 0x05, 0x0b, 0, 3})                   // counter: concurrent increments
	f.Add([]byte{2, 0x00, 0x04, 1, 1, 0x05, 0x03, 0, 1})                   // queue: enq overlapping deq
	f.Add([]byte{3, 0x02, 0x04, 1, 7, 0x43, 0x08, 0, 7})                   // rmw register: corrupted return
	f.Add([]byte{0, 0x00, 0x04, 1, 0xff, 0x41, 0x08, 1, 2})                // pending write
	f.Add([]byte{2, 0x00, 0x07, 3, 1, 0x04, 0x0b, 3, 1, 0x01, 0x04, 3, 2}) // two islands
	f.Fuzz(func(t *testing.T, data []byte) {
		dt, h := decodeFuzzHistory(data)
		if h == nil {
			t.Skip("input too short to decode")
		}
		want := check.CheckReference(dt, h)

		got := check.Check(dt, h)
		if got.Linearizable != want.Linearizable {
			t.Fatalf("island check disagrees with reference: got %v want %v\n%s",
				got.Linearizable, want.Linearizable, h)
		}
		if got.Certified {
			t.Fatalf("certificate taken on a history without keys\n%s", h)
		}
		whole := check.CheckOpts(dt, h, check.Options{NoIslands: true})
		if whole.Linearizable != want.Linearizable {
			t.Fatalf("whole-history check disagrees with reference: got %v want %v\n%s",
				whole.Linearizable, want.Linearizable, h)
		}
		par := check.CheckOpts(dt, h, check.Options{Cache: check.NewCache(), Workers: 4})
		if par.Linearizable != want.Linearizable {
			t.Fatalf("parallel island check disagrees with reference: got %v want %v\n%s",
				par.Linearizable, want.Linearizable, h)
		}
		if got.Linearizable {
			assertWitness(t, dt, h, got.Witness)
			assertWitness(t, dt, h, whole.Witness)
			assertWitness(t, dt, h, par.Witness)
		}

		if (len(data)-1)%4 == 0 {
			return
		}
		_, keyed := decodeFuzzHistory(data)
		certifyFuzz(keyed, want, data[len(data)-1])
		cert := check.Check(dt, keyed)
		if cert.Linearizable != want.Linearizable {
			t.Fatalf("keyed check disagrees with reference: got %v want %v\n%s",
				cert.Linearizable, want.Linearizable, keyed)
		}
		if cert.Certified && (!want.Linearizable || keyed.PendingCount() > 0) {
			t.Fatalf("certificate taken where the reference says %v with %d pending\n%s",
				want.Linearizable, keyed.PendingCount(), keyed)
		}
		if cert.Linearizable {
			assertWitness(t, dt, keyed, cert.Witness)
		}
	})
}
