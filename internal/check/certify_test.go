package check_test

import (
	"testing"

	"timebounds/internal/check"
	"timebounds/internal/engine"
	"timebounds/internal/history"
	"timebounds/internal/model"
	"timebounds/internal/spec"
	"timebounds/internal/types"
)

// certOp is one completed operation of a hand-built certified history.
type certOp struct {
	proc      model.ProcessID
	kind      spec.OpKind
	arg, ret  spec.Value
	inv, resp model.Time
	cert      history.Cert
}

// certHistory records ops, in the order given, each with its certificate
// key.
func certHistory(t *testing.T, ops []certOp) *history.History {
	t.Helper()
	h := history.New()
	for _, op := range ops {
		id := h.Invoke(op.proc, op.kind, op.arg, op.inv)
		h.Certify(id, op.cert)
		if err := h.Respond(id, op.ret, op.resp); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// TestCertificateVerdicts pins each step of the certificate check on
// hand-built register histories. None is totally ordered, so the
// sequential fast path never answers first, and every verdict must equal
// the reference's whether or not the certificate holds.
func TestCertificateVerdicts(t *testing.T) {
	upd, acc := history.UpdateCert, history.AccessorCert
	cases := []struct {
		name      string
		ops       []certOp
		certified bool
	}{
		{"holds", []certOp{
			{0, types.OpWrite, 1, nil, 0, 2 * ms, upd(0)},
			{1, types.OpWrite, 2, nil, 1 * ms, 3 * ms, upd(1 * ms)},
			{2, types.OpRead, nil, 2, 4 * ms, 5 * ms, acc(2)},
		}, true},
		// Both reads follow the first write; the one invoked first goes
		// first, whatever its id, or the sweep would reject the order.
		{"accessor-ties-by-invocation", []certOp{
			{0, types.OpWrite, 1, nil, 0, 5 * ms, upd(0)},
			{2, types.OpRead, nil, 1, 3 * ms, 4 * ms, acc(1)},
			{1, types.OpRead, nil, 1, 1 * ms, 2 * ms, acc(1)},
		}, true},
		// Equal stamps: process 0's write executes first everywhere.
		{"stamp-ties-by-process", []certOp{
			{1, types.OpWrite, 1, nil, 0, 2 * ms, upd(0)},
			{0, types.OpWrite, 2, nil, 0, 2 * ms, upd(0)},
			{2, types.OpRead, nil, 1, 3 * ms, 4 * ms, acc(2)},
		}, true},
		// The order puts the read before a write that responded before the
		// read was invoked; the replay alone would accept it.
		{"real-time-sweep", []certOp{
			{0, types.OpWrite, 1, nil, 0, 1 * ms, upd(5 * ms)},
			{1, types.OpRead, nil, 0, 2 * ms, 3 * ms, acc(0)},
			{2, types.OpWrite, 2, nil, 2 * ms, 6 * ms, upd(6 * ms)},
		}, false},
		// The order respects real time, but the read's return is wrong.
		{"return-comparison", []certOp{
			{0, types.OpWrite, 1, nil, 0, 2 * ms, upd(0)},
			{1, types.OpRead, nil, 7, 1 * ms, 3 * ms, acc(1)},
		}, false},
		// A linearizable history whose recorded order is not a
		// linearization: the search still finds one.
		{"wrong-order-falls-back", []certOp{
			{0, types.OpWrite, 1, nil, 0, 2 * ms, upd(0)},
			{1, types.OpRead, nil, 1, 1 * ms, 3 * ms, acc(0)},
		}, false},
	}
	reg := types.NewRegister(0)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := certHistory(t, c.ops)
			want := check.CheckReference(reg, h)
			got := check.Check(reg, h)
			if got.Certified != c.certified {
				t.Fatalf("Certified = %v, want %v\n%s", got.Certified, c.certified, h)
			}
			if got.Linearizable != want.Linearizable {
				t.Fatalf("verdict %v, reference %v\n%s", got.Linearizable, want.Linearizable, h)
			}
			if got.Linearizable {
				assertWitness(t, reg, h, got.Witness)
			}
		})
	}
}

// TestCertificateNeedsEveryRecord: a pending or an uncertified record
// means no certificate, even where the recorded order would replay.
func TestCertificateNeedsEveryRecord(t *testing.T) {
	reg := types.NewRegister(0)
	pending := history.New()
	w := pending.Invoke(0, types.OpWrite, 9, 0)
	pending.Certify(w, history.UpdateCert(0))
	r := pending.Invoke(1, types.OpRead, nil, 1*ms)
	pending.Certify(r, history.AccessorCert(1))
	if err := pending.Respond(r, 9, 2*ms); err != nil {
		t.Fatal(err)
	}
	uncertified := history.New()
	rec(t, uncertified, 0, types.OpWrite, 1, nil, 0, 2*ms)
	r = uncertified.Invoke(1, types.OpRead, nil, 1*ms)
	uncertified.Certify(r, history.AccessorCert(1))
	if err := uncertified.Respond(r, 1, 3*ms); err != nil {
		t.Fatal(err)
	}
	for name, h := range map[string]*history.History{"pending": pending, "uncertified": uncertified} {
		if res := check.Check(reg, h); res.Certified || !res.Linearizable {
			t.Errorf("%s: Certified = %v, Linearizable = %v; want the search's linearizable verdict",
				name, res.Certified, res.Linearizable)
		}
	}
}

// TestAlgorithm1HistoriesCertify: every fault-free Algorithm 1 and all-oop
// history of a small grid — every data type, random and extremal delays,
// n ∈ {2, 3, 4}, X at 0, mid and max — records an order that is a
// linearization, and the checker takes it whenever the history is not
// totally ordered.
func TestAlgorithm1HistoriesCertify(t *testing.T) {
	objects := []spec.DataType{
		types.NewRegister(0), types.NewRMWRegister(0), types.NewQueue(), types.NewStack(),
		types.NewTree(), types.NewSet(), types.NewCounter(), types.NewDict(),
		types.NewPQueue(), types.NewAccount(),
	}
	var scs []engine.Scenario
	for _, n := range []int{2, 3, 4} {
		p := model.Params{N: n, D: 10 * ms, U: 4 * ms}
		p.Epsilon = p.OptimalSkew()
		maxX := p.D + p.Epsilon - p.U
		for _, b := range []engine.Backend{engine.Algorithm1{}, engine.AllOOP{}} {
			for _, dt := range objects {
				for _, x := range []model.Time{0, maxX / 2, maxX} {
					for _, d := range []engine.DelayMode{engine.DelayRandom, engine.DelayExtremal} {
						scs = append(scs, engine.Scenario{
							Backend: b, DataType: dt, Params: p, X: x, Seed: int64(n),
							Delay: engine.DelaySpec{Mode: d},
						})
					}
				}
			}
		}
	}
	concurrent := 0
	for i, res := range engine.New(0).Run(scs).Results {
		if res.Err != "" {
			t.Fatalf("%s: %s", res.Name, res.Err)
		}
		dt := scs[i].DataType
		if _, ok := check.Certificate(dt, res.History); !ok {
			t.Errorf("%s: the recorded order is not a linearization\n%s", res.Name, res.History)
			continue
		}
		if _, sequential := check.SequentialFastPath(dt, res.History); sequential {
			continue
		}
		concurrent++
		if !check.Check(dt, res.History).Certified {
			t.Errorf("%s: Check searched a history whose certificate holds", res.Name)
		}
	}
	if concurrent == 0 {
		t.Fatal("no concurrent history in the grid")
	}
}
