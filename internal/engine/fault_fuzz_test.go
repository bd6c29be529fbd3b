package engine_test

import (
	"encoding/binary"
	"reflect"
	"slices"
	"testing"
	"time"

	"timebounds/internal/engine"
	"timebounds/internal/fault"
	"timebounds/internal/model"
	"timebounds/internal/types"
	"timebounds/internal/workload"
)

// decodeFaultPlan decodes one faulted scenario from raw fuzz bytes: the
// first byte picks the bundled fault family (low nibble) and the backend
// (high nibble); then n in [-3, 8], d, u and ε as signed multiples of
// 100µs (ε = 0 resolves to the optimal skew), the seed, and 1–8
// operations per process. The parameters are not filtered: hostile ones
// must come back as a run error.
func decodeFaultPlan(data []byte) (engine.Scenario, bool) {
	if len(data) < 10 {
		return engine.Scenario{}, false
	}
	specs, backends := engine.FaultSpecs(), engine.Backends()
	unit := func(b []byte) model.Time {
		return model.Time(int16(binary.LittleEndian.Uint16(b))) * 100 * time.Microsecond
	}
	return engine.Scenario{
		Backend:  backends[int(data[0]>>4)%len(backends)],
		DataType: types.NewRMWRegister(0),
		Params: model.Params{
			N: int(data[1])%12 - 3,
			D: unit(data[2:]), U: unit(data[4:]), Epsilon: unit(data[6:]),
		},
		Seed:     int64(data[8]),
		Workload: workload.Spec{OpsPerProcess: 1 + int(data[9])%8},
		Faults:   specs[int(data[0])%len(specs)],
		Verify:   true,
	}, true
}

// FuzzFaultPlan holds a faulted run to the dichotomy's contract: hostile
// parameters are a run error, never a panic; an admissible-parameter run
// completes and lands on exactly one horn — within-bound with no breach,
// or assumption-broken naming at least one — and never on neither; its
// fault report names bounded-skew exactly when Result.Model does; its
// fault-free twin is judged admissible; and both Results are identical at
// one worker and at eight.
func FuzzFaultPlan(f *testing.F) {
	f.Add([]byte{0x00, 0x06, 0x64, 0x00, 0x28, 0x00, 0x00, 0x00, 0x01, 0x02})
	f.Add([]byte{0x17, 0x07, 0x64, 0x00, 0x28, 0x00, 0x00, 0x00, 0x02, 0x02})
	f.Add([]byte{0x23, 0x05, 0x0a, 0x00, 0x0a, 0x00, 0x02, 0x00, 0x07, 0x02})
	f.Add([]byte{0x36, 0x04, 0x64, 0x00, 0x00, 0x00, 0x05, 0x00, 0x03, 0x02})
	f.Add([]byte{0x04, 0x02, 0x9c, 0xff, 0x28, 0x00, 0x00, 0x00, 0x01, 0x02})
	f.Add([]byte{0x15, 0x06, 0x0a, 0x00, 0x64, 0x00, 0x00, 0x00, 0x01, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, ok := decodeFaultPlan(data)
		if !ok {
			return
		}
		twin := sc
		twin.Faults = engine.FaultSpec{}
		scs := []engine.Scenario{sc, twin}
		rep := engine.New(1).Run(scs)
		if again := engine.New(8).Run(scs); !reflect.DeepEqual(again.Results, rep.Results) {
			t.Fatal("Results at 8 workers differ from the ones at 1")
		}
		res, free := rep.Results[0], rep.Results[1]
		p := sc.Params
		if p.Epsilon == 0 {
			p.Epsilon = p.OptimalSkew()
		}
		if err := p.Validate(); err != nil {
			if res.Err == "" || free.Err == "" {
				t.Fatalf("hostile %+v ran: %q, %q", p, res.Err, free.Err)
			}
			return
		}
		if res.Err != "" || free.Err != "" {
			t.Fatalf("%+v failed: %q, %q", p, res.Err, free.Err)
		}
		if free.Model.Condition != fault.Admissible {
			t.Fatalf("fault-free %s judged %v", free.Name, free.Model)
		}
		fr := res.Fault
		if fr == nil {
			t.Fatalf("%s: no fault report", res.Name)
		}
		switch fr.Verdict {
		case engine.VerdictWithinBound:
			if len(fr.Breaches) != 0 {
				t.Fatalf("%s: within-bound with breaches %v", res.Name, fr.Breaches)
			}
		case engine.VerdictAssumptionBroken:
			if len(fr.Breaches) == 0 {
				t.Fatalf("%s: broken horn names no assumption", res.Name)
			}
		default:
			t.Fatalf("%s: verdict %q is neither horn", res.Name, fr.Verdict)
		}
		skewBreach := slices.ContainsFunc(fr.Breaches, func(b fault.Breach) bool {
			return b.Assumption == fault.AssumptionBoundedSkew
		})
		if skewBreach != (res.Model.Condition == fault.SkewBroken) {
			t.Fatalf("%s: fault report %s, model %v", res.Name, fr.Summary(), res.Model)
		}
	})
}
