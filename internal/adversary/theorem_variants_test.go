package adversary

import (
	"testing"

	"timebounds/internal/engine"
	"timebounds/internal/model"
	"timebounds/internal/types"
)

func TestTheoremD1WithFewerWritersThanProcesses(t *testing.T) {
	// The theorem is stated for any system of n ≥ k processes: the bound
	// drops to (1-1/k)u even when more processes exist. Run k writers in
	// larger clusters; idle processes carry the proof's d-u/2 delays.
	for _, tc := range []struct {
		k, n int
	}{
		{2, 4}, {2, 6}, {3, 5}, {4, 6},
	} {
		p := params(tc.n)
		bound := d1Bound(p, tc.k, ShiftFraction{})
		if want := model.Time(int64(p.U) * int64(tc.k-1) / int64(tc.k)); bound != want {
			t.Fatalf("k=%d: bound %s, want %s", tc.k, bound, want)
		}

		results := run(t, d1At(tc.k)(bound-1), p)
		if !results[0].Linearizable {
			t.Errorf("k=%d n=%d: R1 should pass", tc.k, tc.n)
		}
		if results[1].Linearizable {
			t.Errorf("k=%d n=%d: R2 should violate below (1-1/k)u=%s", tc.k, tc.n, bound)
		}

		for i, res := range run(t, d1At(tc.k)(bound), p) {
			if !res.Linearizable {
				t.Errorf("k=%d n=%d: run %d should pass at the bound", tc.k, tc.n, i)
			}
		}
	}
}

func TestTheoremD1RejectsBadK(t *testing.T) {
	p := params(3)
	if _, err := Run(d1At(1)(0), p); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := Run(d1At(4)(0), p); err == nil {
		t.Error("k>n accepted")
	}
}

func TestTheoremE1OnDictionary(t *testing.T) {
	// Theorem E.1 generalizes beyond queues: put on a dictionary is a
	// non-overwriting pure mutator that dict-get can order, so the same
	// premature pair produces a violation — here exercised through the
	// queue construction's dict twin.
	p := params(3)
	m := M(p)
	at := func(x, lm model.Time) engine.Result {
		return run(t, E1SpecFor("e1-dict", types.NewDict(), types.OpPut, types.OpDictGet,
			types.KV{Key: "k", Value: "x"}, "k", fixed(x), fixed(lm), ShiftFraction{}), p)[0]
	}
	// Premature pair on the dict: same tuning shape as the queue scenario.
	if res := at(p.Epsilon+m/2, 0); res.Linearizable {
		t.Fatalf("premature (put, get) pair should violate:\n%s", res.History)
	}
	// Correct Algorithm 1 pair on the identical scenario.
	if res := at(0, p.Epsilon); !res.Linearizable {
		t.Fatalf("correct (put, get) pair should pass:\n%s", res.History)
	}
}
