package core

import (
	"testing"

	"timebounds/internal/history"
	"timebounds/internal/model"
	"timebounds/internal/spec"
	"timebounds/internal/types"
)

// fakeHost is a Host that records what its Replica asks of it; the test
// fires the armed timers by hand.
type fakeHost struct {
	t     *testing.T
	clock model.Time
	sent  []Entry
	armed []Timer
	resp  map[history.OpID]spec.Value
	certs map[history.OpID]history.Cert
}

func (h *fakeHost) Self() model.ProcessID                   { return 1 }
func (h *fakeHost) ClockTime() model.Time                   { return h.clock }
func (h *fakeHost) Broadcast(e Entry)                       { h.sent = append(h.sent, e) }
func (h *fakeHost) After(t Timer)                           { h.armed = append(h.armed, t) }
func (h *fakeHost) Certify(id history.OpID, c history.Cert) { h.certs[id] = c }
func (h *fakeHost) Respond(id history.OpID, ret spec.Value) {
	if _, dup := h.resp[id]; dup {
		h.t.Errorf("operation %d answered twice", id)
	}
	h.resp[id] = ret
}

// take removes and returns the oldest armed timer of class c.
func (h *fakeHost) take(c TimerClass) Timer {
	h.t.Helper()
	for i, t := range h.armed {
		if t.Class == c {
			h.armed = append(h.armed[:i], h.armed[i+1:]...)
			return t
		}
	}
	h.t.Fatalf("no armed timer of class %d among %+v", c, h.armed)
	return Timer{}
}

// answered reports operation id's response, failing if there is none.
func (h *fakeHost) answered(id history.OpID) spec.Value {
	h.t.Helper()
	ret, ok := h.resp[id]
	if !ok {
		h.t.Fatalf("operation %d not answered", id)
	}
	return ret
}

// TestReplicaHostSeam pins the per-class invocation step and the timer
// actions against a recording host: process 1, local clock 100, X = 3,
// over an rmw register (write is a MOP, read an AOP, rmw an OOP).
func TestReplicaHostSeam(t *testing.T) {
	const x = 3
	remote := func(clock model.Time, proc model.ProcessID, v int) Entry {
		return Entry{TS: ts(clock, proc), Kind: types.OpWrite, Arg: v}
	}
	cases := []struct {
		name string
		run  func(t *testing.T, r *Replica, h *fakeHost)
	}{
		{"AOP", func(t *testing.T, r *Replica, h *fakeHost) {
			// Around the stamp ⟨97, 1⟩: two smaller entries, an own earlier
			// write on it, and two larger.
			for _, e := range []Entry{remote(96, 2, 5), remote(97, 0, 6), remote(97, 1, 9), remote(97, 2, 7), remote(98, 0, 8)} {
				r.Deliver(e)
			}
			h.armed = nil
			r.Invoke(1, types.OpRead, nil)
			if len(h.sent) != 0 {
				t.Fatalf("accessor broadcast %+v", h.sent)
			}
			tm := h.take(TimerAccessorResponse)
			if tm.Entry.TS != ts(100-x, 1) || tm.ID != 1 || len(h.armed) != 0 {
				t.Fatalf("accessor armed %+v and %+v, want one response timer stamped ⟨clock - X, self⟩", tm, h.armed)
			}
			if len(h.resp) != 0 {
				t.Fatal("accessor answered before its timer")
			}
			r.Fire(tm)
			if got := h.answered(1); !spec.ValueEqual(got, 6) || r.Applied() != 2 {
				t.Fatalf("read = %v after %d executions, want 6 after the 2 strictly smaller stamps", got, r.Applied())
			}
			if c := h.certs[1]; c != history.AccessorCert(2) {
				t.Fatalf("accessor certified %+v, want after the 2 updates it read", c)
			}
		}},
		{"MOP", func(t *testing.T, r *Replica, h *fakeHost) {
			r.Invoke(1, types.OpWrite, 9)
			want := Entry{TS: ts(100, 1), Kind: types.OpWrite, Arg: 9}
			if len(h.sent) != 1 || h.sent[0] != want {
				t.Fatalf("mutator broadcast %+v, want [%+v]", h.sent, want)
			}
			self := h.take(TimerSelfAdd)
			resp := h.take(TimerMutatorResponse)
			if self.Entry != want || resp.ID != 1 || len(h.armed) != 0 {
				t.Fatalf("mutator armed self-add %+v, response %+v and %+v", self, resp, h.armed)
			}
			if c := h.certs[1]; c != history.UpdateCert(100) {
				t.Fatalf("mutator certified %+v, want its stamp clock 100", c)
			}
			r.Fire(resp)
			if got := h.answered(1); got != nil || r.Applied() != 0 {
				t.Fatalf("mutator answered %v after %d executions, want nil before executing", got, r.Applied())
			}
			r.Fire(self)
			r.Fire(h.take(TimerExecute))
			if r.Applied() != 1 {
				t.Fatalf("own write executed %d times, want 1", r.Applied())
			}
		}},
		{"OOP", func(t *testing.T, r *Replica, h *fakeHost) {
			r.Invoke(1, types.OpRMW, 4)
			own := Entry{TS: ts(100, 1), Kind: types.OpRMW, Arg: 4}
			if len(h.sent) != 1 || h.sent[0] != own {
				t.Fatalf("OOP broadcast %+v, want [%+v]", h.sent, own)
			}
			if c := h.certs[1]; c != history.UpdateCert(100) {
				t.Fatalf("OOP certified %+v, want its stamp clock 100", c)
			}
			r.Fire(h.take(TimerSelfAdd))
			ownExec := h.take(TimerExecute)
			r.Deliver(remote(99, 0, 3))
			r.Fire(h.take(TimerExecute))
			if len(h.resp) != 0 || r.Applied() != 1 {
				t.Fatalf("a smaller remote entry's execution answered the OOP: %v", h.resp)
			}
			r.Fire(ownExec)
			if got := h.answered(1); !spec.ValueEqual(got, 3) || r.Applied() != 2 {
				t.Fatalf("rmw = %v after %d executions, want 3 after its own", got, r.Applied())
			}
		}},
		{"Execute", func(t *testing.T, r *Replica, h *fakeHost) {
			for _, c := range []model.Time{10, 20, 30} {
				r.Deliver(remote(c, 0, int(c)))
			}
			h.take(TimerExecute)
			r.Fire(h.take(TimerExecute))
			if r.Applied() != 2 {
				t.Fatalf("execute timer of ⟨20, 0⟩ applied %d entries, want 2 (inclusive bound)", r.Applied())
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := &fakeHost{t: t, clock: 100, resp: map[history.OpID]spec.Value{}, certs: map[history.OpID]history.Cert{}}
			r := NewProtocol(h, types.NewRMWRegister(0), x)
			c.run(t, &r, h)
		})
	}
}
