package engine_test

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"timebounds/internal/engine"
	"timebounds/internal/model"
	"timebounds/internal/spec"
	"timebounds/internal/types"
)

// TestMessagePathGolden pins what every backend's messages do, fault-free
// and under every bundled fault plan: per run, the scenario name, an
// FNV-64 of its history records, its message-trace length and its fault
// counters. The plans reach the paths no benchmark workload takes —
// duplicated delivery, loss, partitions, and the state transfer of a
// recovering replica — so a change to how messages are carried that
// should be invisible must leave testdata/message-path.golden alone.
func TestMessagePathGolden(t *testing.T) {
	p := model.Params{N: 4, D: 10 * time.Millisecond, U: 4 * time.Millisecond}
	backends := []engine.Backend{engine.Algorithm1{}, engine.AllOOP{}, engine.Centralized{}, engine.TOB{}}
	objects := []spec.DataType{types.NewRMWRegister(0), types.NewQueue()}
	plans := append([]engine.FaultSpec{{}}, engine.FaultSpecs()...)
	var scs []engine.Scenario
	for _, b := range backends {
		for _, dt := range objects {
			for _, fs := range plans {
				for seed := int64(1); seed <= 2; seed++ {
					scs = append(scs, engine.Scenario{
						Backend: b, DataType: dt, Params: p, Seed: seed,
						Delay: engine.DelaySpec{Mode: engine.DelayRandom}, Faults: fs, Trace: true,
					})
				}
			}
		}
	}
	var b strings.Builder
	for _, res := range engine.Run(scs).Results {
		if res.Err != "" {
			t.Fatalf("%s: %s", res.Name, res.Err)
		}
		h := fnv.New64a()
		for _, op := range res.History.Ops() {
			fmt.Fprintf(h, "%d|%s|%#v|%#v|%d|%d|%t|%d:%d\n", op.Proc, op.Kind, op.Arg, op.Ret,
				op.Invoke, op.Respond, op.Pending, op.CertKind, op.CertVal)
		}
		fmt.Fprintf(&b, "%s %016x msgs=%d", res.Name, h.Sum64(), len(res.Run.Msgs))
		if res.Fault != nil {
			fmt.Fprintf(&b, " %+v", res.Fault.Stats)
		}
		b.WriteByte('\n')
	}
	path := filepath.Join("testdata", "message-path.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("message path changed:\n--- got\n%s--- want\n%s", got, want)
	}
}
