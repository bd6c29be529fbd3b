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

// TestCorrectBackendsHistoriesCertify: every fault-free history of every
// backend in a small grid — every data type, random and extremal delays,
// n ∈ {2, 3, 4}, X at 0, mid and max — records an order that is a
// linearization, and the checker takes it whenever the history is not
// totally ordered.
func TestCorrectBackendsHistoriesCertify(t *testing.T) {
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
		for _, b := range engine.Backends() {
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
	concurrent := make(map[string]int)
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
		concurrent[res.Backend]++
		if !check.Check(dt, res.History).Certified {
			t.Errorf("%s: Check searched a history whose certificate holds", res.Name)
		}
	}
	for _, b := range engine.Backends() {
		if concurrent[b.Name()] == 0 {
			t.Errorf("no concurrent %s history in the grid", b.Name())
		}
	}
}

// concurrentRun returns the first history of backend b on an rmw register
// (n = 4, random delays) that is not totally ordered, trying seeds in turn.
func concurrentRun(t *testing.T, b engine.Backend, dt spec.DataType, faults engine.FaultSpec, seed int64) *history.History {
	t.Helper()
	p := model.Params{N: 4, D: 10 * ms, U: 4 * ms}
	for ; seed < 100; seed++ {
		res := engine.Run([]engine.Scenario{{
			Backend: b, DataType: dt, Params: p, Seed: seed,
			Delay: engine.DelaySpec{Mode: engine.DelayRandom}, Faults: faults,
		}}).Results[0]
		if res.Err != "" {
			t.Fatalf("%s: %s", res.Name, res.Err)
		}
		if _, sequential := check.SequentialFastPath(dt, res.History); !sequential {
			return res.History
		}
	}
	t.Fatalf("%s: no concurrent history in 100 seeds", b.Name())
	return nil
}

// TestMisrankedCertificateFallsBack: swapping the ranks of two adjacent
// rmw updates with different arguments — which do not commute: each
// returns what the other wrote — in a concurrent tob or centralized
// history breaks its certificate, and the search still finds the history
// linearizable.
func TestMisrankedCertificateFallsBack(t *testing.T) {
	dt := types.NewRMWRegister(0)
	for _, b := range []engine.Backend{engine.TOB{}, engine.Centralized{}} {
		t.Run(b.Name(), func(t *testing.T) {
			ops := concurrentRun(t, b, dt, engine.FaultSpec{}, 1).Ops()
			byRank := make(map[int32]int)
			for i, op := range ops {
				if op.CertKind == history.CertRank {
					byRank[op.CertVal] = i
				}
			}
			swapped := false
			for r := int32(0); !swapped && int(r)+1 < len(byRank); r++ {
				a, c := &ops[byRank[r]], &ops[byRank[r+1]]
				if a.Kind == types.OpRMW && c.Kind == types.OpRMW && !spec.ValueEqual(a.Arg, c.Arg) {
					a.CertVal, c.CertVal = c.CertVal, a.CertVal
					swapped = true
				}
			}
			if !swapped {
				t.Fatalf("no adjacent rmw pair with different arguments\n%s", history.FromRecords(ops))
			}
			h := history.FromRecords(ops)
			if _, ok := check.Certificate(dt, h); ok {
				t.Fatalf("a misranked certificate held\n%s", h)
			}
			if res := check.Check(dt, h); !res.Linearizable || res.Certified {
				t.Fatalf("Linearizable = %v, Certified = %v; want the search's linearizable verdict", res.Linearizable, res.Certified)
			}
		})
	}
}

// TestRankCertificatesKeepVerdicts: under every built-in fault plan, the
// verdict on a tob or centralized history equals the verdict on the same
// records with their certificate keys stripped.
func TestRankCertificatesKeepVerdicts(t *testing.T) {
	certified := 0
	for _, b := range []engine.Backend{engine.TOB{}, engine.Centralized{}} {
		for _, dt := range []spec.DataType{types.NewRMWRegister(0), types.NewQueue()} {
			for _, fs := range engine.FaultSpecs() {
				h := concurrentRun(t, b, dt, fs, 1)
				ops := h.Ops()
				for i := range ops {
					ops[i].CertKind, ops[i].CertVal = history.CertNone, 0
				}
				got, want := check.Check(dt, h), check.Check(dt, history.FromRecords(ops))
				if got.Linearizable != want.Linearizable {
					t.Errorf("%s/%s/%s: verdict %v, %v with the keys stripped\n%s",
						b.Name(), dt.Name(), fs.Name, got.Linearizable, want.Linearizable, h)
				}
				if got.Certified {
					certified++
				}
			}
		}
	}
	if certified == 0 {
		t.Fatal("no faulted history certified")
	}
}
