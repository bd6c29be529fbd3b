package live

import (
	"runtime"
	"testing"
	"time"

	"timebounds/internal/check"
	"timebounds/internal/history"
	"timebounds/internal/model"
	"timebounds/internal/types"
)

// raceInvocations builds the lower-bound schedule shape: every process
// fires the same racing kind back-to-back at identical instants. Args are
// distinct per invocation so the rmw-register history is order-sensitive:
// replicas applying a racing wave in different orders produce divergent
// states or inconsistent return values instead of coinciding by accident.
func raceInvocations(n, rounds int, gap model.Time) []Invocation {
	var invs []Invocation
	for r := 0; r < rounds; r++ {
		at := model.Time(r) * gap
		for p := 0; p < n; p++ {
			invs = append(invs, Invocation{At: at, Proc: model.ProcessID(p), Kind: types.OpRMW, Arg: r*n + p + 1})
		}
	}
	return invs
}

// TestRunSafeChanCluster is the live smoke test: a 3-replica in-process
// cluster under racing read-modify-write load with jittered synthetic
// delays must answer every operation, linearize post hoc, and converge.
func TestRunSafeChanCluster(t *testing.T) {
	dt := types.NewRMWRegister(0)
	cfg := Config{
		N:        3,
		DataType: dt,
		Transport: &ChanTransport{
			Delay: UniformDelay(7, model.Time(200*time.Microsecond), model.Time(800*time.Microsecond)),
		},
	}
	rr, err := Run(cfg, raceInvocations(3, 6, model.Time(2*time.Millisecond)))
	if err != nil {
		t.Fatal(err)
	}
	if rr.Pending != 0 {
		t.Fatalf("%d operations never responded", rr.Pending)
	}
	if got := rr.History.Len(); got != 18 {
		t.Fatalf("history has %d ops, want 18", got)
	}
	if rr.Diverged() {
		t.Fatalf("replicas diverged: %v", rr.States)
	}
	if rr.Estimate.FromPrior {
		t.Fatalf("estimator never left its prior (samples=%d)", rr.Samples)
	}
	if rr.Estimate.D < model.Time(200*time.Microsecond) {
		t.Fatalf("estimated d %s below the synthetic delay floor", rr.Estimate.D)
	}
	res := check.Check(dt, rr.History)
	if !res.Linearizable {
		t.Fatalf("safe live run not linearizable")
	}
	for op := range rr.History.All() {
		if op.CertKind != history.CertUpdate {
			t.Fatalf("rmw %v carries no stamp certificate", op)
		}
	}
}

// TestRunTCPCluster exercises the loopback-TCP transport end to end with
// a small mixed workload.
func TestRunTCPCluster(t *testing.T) {
	dt := types.NewRMWRegister(0)
	cfg := Config{
		N:         3,
		DataType:  dt,
		Transport: &TCPTransport{},
	}
	var invs []Invocation
	for r := 0; r < 4; r++ {
		at := model.Time(r) * model.Time(2*time.Millisecond)
		invs = append(invs,
			Invocation{At: at, Proc: 0, Kind: types.OpWrite, Arg: r},
			Invocation{At: at, Proc: 1, Kind: types.OpRead},
			Invocation{At: at, Proc: 2, Kind: types.OpRMW, Arg: 10},
		)
	}
	rr, err := Run(cfg, invs)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Pending != 0 {
		t.Fatalf("%d operations never responded over TCP", rr.Pending)
	}
	if rr.Diverged() {
		t.Fatalf("replicas diverged over TCP: %v", rr.States)
	}
	if !check.Check(dt, rr.History).Linearizable {
		t.Fatalf("TCP live run not linearizable")
	}
}

// TestRunUndertunedDichotomy is the satellite-3 regression: retuning
// Algorithm 1's waits well below the estimated envelope must land on one
// horn of the premature-tuning dichotomy — a linearizability violation,
// replica divergence, or some operation still paying at least the bound.
// It must NOT produce a run that is linearizable, converged, and fast.
func TestRunUndertunedDichotomy(t *testing.T) {
	dt := types.NewRMWRegister(0)
	cfg := Config{
		N:        3,
		DataType: dt,
		Transport: &ChanTransport{
			Delay: UniformDelay(11, model.Time(1*time.Millisecond), model.Time(4*time.Millisecond)),
		},
		Undertune: 0.03,
	}
	rr, err := Run(cfg, raceInvocations(3, 10, model.Time(1*time.Millisecond)))
	if err != nil {
		t.Fatal(err)
	}
	violation := !check.Check(dt, rr.History).Linearizable
	diverged := rr.Diverged()
	// Third horn: some completed operation still paid the OOP bound d+ε
	// computed from the final estimate.
	bound := rr.Estimate.D + rr.Estimate.Epsilon
	slow := false
	for _, op := range rr.History.Ops() {
		if !op.Pending && op.Respond-op.Invoke >= bound {
			slow = true
			break
		}
	}
	if !violation && !diverged && !slow {
		t.Fatalf("under-tuned run was linearizable, converged, and fast — dichotomy falsified (estimate %s)", rr.Estimate)
	}
	t.Logf("dichotomy horn: violation=%v diverged=%v slow=%v", violation, diverged, slow)
}

// TestRunClockOffsetsStillLinearizable skews replica clocks within the
// estimated envelope; Algorithm 1 must absorb the skew.
func TestRunClockOffsetsStillLinearizable(t *testing.T) {
	dt := types.NewCounter()
	cfg := Config{
		N:        3,
		DataType: dt,
		Transport: &ChanTransport{
			Delay: FixedDelay(model.Time(500 * time.Microsecond)),
		},
		ClockOffsets: []model.Time{0, model.Time(100 * time.Microsecond), -model.Time(80 * time.Microsecond)},
	}
	var invs []Invocation
	for r := 0; r < 5; r++ {
		at := model.Time(r) * model.Time(2*time.Millisecond)
		for p := 0; p < 3; p++ {
			invs = append(invs, Invocation{At: at, Proc: model.ProcessID(p), Kind: types.OpIncrement})
		}
	}
	rr, err := Run(cfg, invs)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Pending != 0 {
		t.Fatalf("%d operations never responded", rr.Pending)
	}
	if rr.Diverged() {
		t.Fatalf("replicas diverged under clock skew: %v", rr.States)
	}
	if !check.Check(dt, rr.History).Linearizable {
		t.Fatalf("skewed live run not linearizable")
	}
}

// TestConfigValidation: every invalid run is rejected before the cluster
// starts, so a rejection leaves no replica, pump or driver goroutine
// behind.
func TestConfigValidation(t *testing.T) {
	dt := types.NewRMWRegister(0)
	cases := []struct {
		cfg  Config
		invs []Invocation
	}{
		{cfg: Config{N: 0, DataType: dt}},
		{cfg: Config{N: 3}},
		{cfg: Config{N: 3, DataType: dt, X: -1}},
		{cfg: Config{N: 3, DataType: dt, Undertune: 1.5}},
		{cfg: Config{N: 3, DataType: dt, ClockOffsets: []model.Time{1, 2}}},
		{cfg: Config{N: 3, DataType: dt}, invs: []Invocation{{Proc: 0, Kind: types.OpRead}, {Proc: 7, Kind: types.OpRead}}},
		{cfg: Config{N: 3, DataType: dt}, invs: []Invocation{{Proc: -1, Kind: types.OpRead}}},
	}
	before := runtime.NumGoroutine()
	for i, c := range cases {
		if _, err := Run(c.cfg, c.invs); err == nil {
			t.Errorf("case %d: invalid run %+v accepted", i, c)
		}
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("rejected runs left %d goroutines running", after-before)
	}
}
