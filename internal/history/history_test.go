package history_test

import (
	"reflect"
	"strings"
	"testing"
	"time"

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
