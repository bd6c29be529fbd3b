package history_test

import (
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"timebounds/internal/history"
	"timebounds/internal/model"
	"timebounds/internal/types"
)

const ms = model.Time(time.Millisecond)

func TestInvokeRespondLifecycle(t *testing.T) {
	h := history.New()
	id := h.Invoke(0, types.OpWrite, 1, 2*ms)
	if h.Complete() || h.PendingCount() != 1 {
		t.Error("freshly invoked op should be pending")
	}
	if err := h.Respond(id, nil, 5*ms); err != nil {
		t.Fatalf("Respond: %v", err)
	}
	if !h.Complete() || h.Len() != 1 {
		t.Error("history should be complete")
	}
	op := h.Ops()[0]
	if op.Latency() != 3*ms {
		t.Errorf("latency %s, want 3ms", op.Latency())
	}
	if op.Pending {
		t.Error("op still marked pending")
	}
}

// TestRecordSize pins a record at 96 bytes on 64-bit platforms: the
// certificate key packs into the padding after Pending, and one more word
// per record shows up in the benchmark's bytes_per_op.
func TestRecordSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the record layout is pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(history.Record{}); got != 96 {
		t.Fatalf("history.Record is %d bytes, want 96", got)
	}
}

// TestCertify: an update's key is stored relative to its invocation and
// read back as its stamp, an accessor's is its update count, and a key the
// record cannot hold leaves the operation uncertified.
func TestCertify(t *testing.T) {
	h := history.New()
	w := h.Invoke(2, types.OpWrite, 1, 5*ms)
	h.Certify(w, history.UpdateCert(5*ms-3))
	r := h.Invoke(1, types.OpRead, nil, 6*ms)
	h.Certify(r, history.AccessorCert(4))
	far := h.Invoke(0, types.OpWrite, 2, 7*ms)
	h.Certify(far, history.UpdateCert(7*ms+time.Hour))
	ops := h.Ops()
	if major, minor := ops[0].OrderKey(); ops[0].CertKind != history.CertUpdate || major != int64(5*ms-3) || minor != 2 {
		t.Errorf("update key (%d, %d) of kind %d, want (stamp, proc)", major, minor, ops[0].CertKind)
	}
	if major, minor := ops[1].OrderKey(); ops[1].CertKind != history.CertAccessor || major != 4 || minor != int64(6*ms) {
		t.Errorf("accessor key (%d, %d) of kind %d, want (update count, invoke)", major, minor, ops[1].CertKind)
	}
	if ops[2].CertKind != history.CertNone {
		t.Errorf("a stamp an hour past its invocation was recorded: %+v", ops[2])
	}
}

// TestRekeyProjection: projected onto some of a run's updates, an
// accessor that evaluated after the run's first k updates counts the
// projected ones among them, past base; FromRecords renumbers the result
// and keeps every key.
func TestRekeyProjection(t *testing.T) {
	h := history.New()
	var ids []history.OpID
	for i, stamp := range []model.Time{3, 1, 2} { // executed as 1, 2, 3
		id := h.Invoke(model.ProcessID(i), types.OpWrite, i, ms)
		h.Certify(id, history.UpdateCert(ms+stamp))
		ids = append(ids, id)
	}
	for _, applied := range []int{2, 3, 9} {
		r := h.Invoke(0, types.OpRead, nil, 2*ms)
		h.Certify(r, history.AccessorCert(applied))
	}
	ops := h.Ops()
	// Keep the updates stamped 3 and 1 (ranks 2 and 0) and the reads.
	upd := []history.Record{ops[ids[0]], ops[ids[1]]}
	reads := ops[3:]
	h.UpdateOrder().Rekey(reads, upd, 10)
	var got []int64
	for _, r := range history.FromRecords(reads).Ops() {
		major, _ := r.OrderKey()
		got = append(got, major)
	}
	if want := []int64{11, 12, 12}; !reflect.DeepEqual(got, want) {
		t.Fatalf("re-keyed reads = %v, want %v", got, want)
	}
}

func TestPendingLatencyIsInfinite(t *testing.T) {
	h := history.New()
	h.Invoke(1, types.OpRead, nil, 0)
	op := h.Ops()[0]
	if op.Latency() != model.Infinity {
		t.Errorf("pending latency %s, want Infinity", op.Latency())
	}
	if !strings.Contains(op.String(), "pending") {
		t.Errorf("pending op string %q", op.String())
	}
}

func TestOpsSortedByInvocation(t *testing.T) {
	h := history.New()
	a := h.Invoke(0, types.OpWrite, 1, 9*ms)
	b := h.Invoke(1, types.OpWrite, 2, 3*ms)
	_ = h.Respond(a, nil, 10*ms)
	_ = h.Respond(b, nil, 4*ms)
	ops := h.Ops()
	if ops[0].ID != b || ops[1].ID != a {
		t.Errorf("ops not sorted by invocation: %v", ops)
	}
}

// collect drains All into a slice.
func collect(h *history.History) []history.Record {
	var out []history.Record
	for r := range h.All() {
		out = append(out, r)
	}
	return out
}

// TestAllWalksOpsOrder: All yields exactly Ops() — on a history appended
// in invocation order (walked in place) and on one appended with
// decreasing invocation times (walked through a sorted copy) — and an
// early break stops it.
func TestAllWalksOpsOrder(t *testing.T) {
	inOrder := history.New()
	outOfOrder := history.New()
	for i := 0; i < 6; i++ {
		at := model.Time(i/2) * ms // pairs share an instant: ties break by id
		a := inOrder.Invoke(model.ProcessID(i%2), types.OpWrite, i, at)
		if i != 3 {
			_ = inOrder.Respond(a, nil, at+ms)
		}
		back := model.Time(5-i) * ms
		b := outOfOrder.Invoke(model.ProcessID(i%2), types.OpWrite, i, back)
		_ = outOfOrder.Respond(b, nil, back+model.Time(i+1)*ms)
	}
	for name, h := range map[string]*history.History{"in-order": inOrder, "out-of-order": outOfOrder} {
		if got, want := collect(h), h.Ops(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: All yielded\n%v\nwant Ops()\n%v", name, got, want)
		}
		n := 0
		for range h.All() {
			n++
			if n == 2 {
				break
			}
		}
		if n != 2 {
			t.Errorf("%s: break after 2 records, iterated %d", name, n)
		}
	}
	if first := collect(outOfOrder)[0]; first.Arg != 5 {
		t.Errorf("out-of-order history starts with arg %v, want the latest-appended 5", first.Arg)
	}
}

func TestMaxLatencyPerKind(t *testing.T) {
	h := history.New()
	w := h.Invoke(0, types.OpWrite, 1, 0)
	_ = h.Respond(w, nil, 3*ms)
	r := h.Invoke(1, types.OpRead, nil, 0)
	_ = h.Respond(r, 1, 13*ms)
	if got, ok := h.MaxLatency(types.OpWrite); !ok || got != 3*ms {
		t.Errorf("write max %s ok=%v", got, ok)
	}
	if got, ok := h.MaxLatency(""); !ok || got != 13*ms {
		t.Errorf("overall max %s ok=%v", got, ok)
	}
	if _, ok := h.MaxLatency(types.OpDequeue); ok {
		t.Error("absent kind should report !ok")
	}
	pendingOnly := history.New()
	pendingOnly.Invoke(0, types.OpRead, nil, 0)
	if _, ok := pendingOnly.MaxLatency(""); ok {
		t.Error("pending-only history should report !ok")
	}
}

func TestStringListsAllOps(t *testing.T) {
	h := history.New()
	a := h.Invoke(0, types.OpWrite, 7, 0)
	_ = h.Respond(a, nil, ms)
	h.Invoke(1, types.OpRead, nil, 2*ms)
	s := h.String()
	if !strings.Contains(s, "write(7)") || !strings.Contains(s, "pending") {
		t.Errorf("history string missing entries:\n%s", s)
	}
}
