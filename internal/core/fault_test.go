package core

import (
	"reflect"
	"testing"

	"timebounds/internal/fault"
	"timebounds/internal/model"
	"timebounds/internal/sim"
	"timebounds/internal/spec"
	"timebounds/internal/types"
)

func faultCluster(t *testing.T, p model.Params, dt spec.DataType, plan *fault.Plan) *Cluster {
	t.Helper()
	in, err := fault.NewInjector(plan, p.N)
	if err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	c, err := NewCluster(Config{Params: p}, dt, sim.Config{Faults: in})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return c
}

// TestCrashRecoverResyncsAndConverges crashes replica 2 mid-run, recovers
// it, and asserts it walks back to serving, adopts a peer's state, and the
// cluster converges on the value written while it was down.
func TestCrashRecoverResyncsAndConverges(t *testing.T) {
	p := model.Params{N: 3, D: 1000, U: 200, Epsilon: 100}
	plan := &fault.Plan{
		Name:    "crash-recover",
		Crashes: []fault.Crash{{Proc: 2, At: 2500, RecoverAt: 20_000}},
	}
	c := faultCluster(t, p, types.NewRegister(0), plan)

	c.Invoke(1000, 0, types.OpWrite, int64(7)) // completes everywhere pre-crash
	c.Invoke(5000, 1, types.OpWrite, int64(42))
	// Replica 2 is down at 5000: it misses the second write entirely and
	// must re-acquire it via sync on recovery.
	if err := c.Run(100_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := c.Replica(2).LifecycleState(); got != StateServing {
		t.Fatalf("recovered replica state = %s, want serving", got)
	}
	enc, err := c.ConvergedState()
	if err != nil {
		t.Fatalf("ConvergedState: %v", err)
	}
	if want := c.Replica(0).LocalStateEncoding(); enc != want {
		t.Fatalf("converged state %q != replica 0 state %q", enc, want)
	}
	st, ok := c.Simulator().FaultStats()
	if !ok {
		t.Fatal("FaultStats: no injector")
	}
	if st.Crashes != 1 || st.Recoveries != 1 {
		t.Fatalf("crashes/recoveries = %d/%d, want 1/1", st.Crashes, st.Recoveries)
	}
	if st.DroppedToDown == 0 {
		t.Fatal("expected the down replica to miss deliveries")
	}
}

// TestCrashRecoverResyncsDictAndConverges is the dict variant of
// TestCrashRecoverResyncsAndConverges, with writes after recovery. Serving
// replicas update their dicts in place, so the donor and the recovered
// replica must each clone the transferred state before their next put:
// after the run no two replicas may hold the same map.
func TestCrashRecoverResyncsDictAndConverges(t *testing.T) {
	p := model.Params{N: 3, D: 1000, U: 200, Epsilon: 100}
	plan := &fault.Plan{
		Name:    "crash-recover",
		Crashes: []fault.Crash{{Proc: 2, At: 2500, RecoverAt: 20_000}},
	}
	dt := types.NewDict()
	c := faultCluster(t, p, dt, plan)

	invs := []struct {
		at   model.Time
		proc model.ProcessID
		kind spec.OpKind
		arg  spec.Value
	}{
		{1000, 0, types.OpPut, types.KV{Key: "a", Value: 1}}, // completes everywhere pre-crash
		{5000, 1, types.OpPut, types.KV{Key: "b", Value: 2}}, // missed by replica 2
		{30_000, 2, types.OpPut, types.KV{Key: "c", Value: 3}},
		{33_000, 0, types.OpDelete, "a"},
		{36_000, 1, types.OpPut, types.KV{Key: "b", Value: 4}},
	}
	want := dt.InitialState()
	for _, in := range invs {
		c.Invoke(in.at, in.proc, in.kind, in.arg)
		want, _ = dt.Apply(want, in.kind, in.arg)
	}
	if err := c.Run(100_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := c.Replica(2).LifecycleState(); got != StateServing {
		t.Fatalf("recovered replica state = %s, want serving", got)
	}
	enc, err := c.ConvergedState()
	if err != nil {
		t.Fatalf("ConvergedState: %v", err)
	}
	if enc != dt.EncodeState(want) {
		t.Fatalf("converged state %s, want %s", enc, dt.EncodeState(want))
	}
	maps := map[uintptr]int{}
	for i := 0; i < p.N; i++ {
		m := reflect.ValueOf(c.Replica(i).exec.State()).Pointer()
		if j, dup := maps[m]; dup {
			t.Fatalf("replicas %d and %d hold the same map after the state transfer", j, i)
		}
		maps[m] = i
	}
}

// sendEnv records what a replica sends; the rest of sim.Env is unused.
type sendEnv struct {
	sim.Env
	sent []sim.Msg
}

func (e *sendEnv) Send(_ model.ProcessID, m sim.Msg) { e.sent = append(e.sent, m) }

// TestResyncDonorSharesItsState: the state a serving replica sends to a
// syncing peer must keep its encoding while the donor executes further
// operations on its own copy. (Dict puts are idempotent, so a recovered
// replica that aliased its donor would still converge; this pins the
// donor side directly.)
func TestResyncDonorSharesItsState(t *testing.T) {
	dt := types.NewDict()
	r := NewReplica(Config{Params: model.Params{N: 3, D: 1000, U: 200, Epsilon: 100}}, dt)
	clock := model.Time(0)
	execute := func(kind spec.OpKind, arg spec.Value) {
		clock++
		r.exec.Add(Entry{TS: ts(clock, 0), Kind: kind, Arg: arg})
		r.exec.ExecuteUpTo(ts(clock, 0), true, 0, &responses{})
	}
	execute(types.OpPut, types.KV{Key: "a", Value: 1})
	env := &sendEnv{}
	r.OnMessage(env, 2, sim.Msg{Tag: msgSyncReq})
	if len(env.sent) != 1 || env.sent[0].Tag != msgSyncResp {
		t.Fatalf("donor sent %+v, want one msgSyncResp", env.sent)
	}
	sent := env.sent[0].Arg
	want := dt.EncodeState(sent)
	execute(types.OpPut, types.KV{Key: "a", Value: 2})
	execute(types.OpPut, types.KV{Key: "b", Value: 3})
	if got := dt.EncodeState(sent); got != want {
		t.Fatalf("transferred state changed under the donor's later puts: %s → %s", want, got)
	}
}

// TestCrashLeavesInFlightOpPending crashes the invoker between invoke and
// respond: the record must stay pending forever and be counted.
func TestCrashLeavesInFlightOpPending(t *testing.T) {
	p := model.Params{N: 3, D: 1000, U: 200, Epsilon: 100}
	plan := &fault.Plan{
		Name:    "crash",
		Crashes: []fault.Crash{{Proc: 0, At: 1500}}, // mid-broadcast-wait
	}
	c := faultCluster(t, p, types.NewRMWRegister(0), plan)
	c.Invoke(1000, 0, types.OpRMW, int64(5)) // OOP: responds at ~d+ε, after the crash
	if err := c.Run(100_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	h := c.History()
	if h.PendingCount() != 1 {
		t.Fatalf("pending ops = %d, want 1", h.PendingCount())
	}
	st, _ := c.Simulator().FaultStats()
	if st.PendingAtCrash != 1 {
		t.Fatalf("PendingAtCrash = %d, want 1", st.PendingAtCrash)
	}
	if got := c.Replica(0).LifecycleState(); got != StateSuspected {
		t.Fatalf("crashed replica state = %s, want suspected", got)
	}
	// The survivors still converge among themselves.
	if _, err := c.ConvergedState(); err != nil {
		t.Fatalf("survivors diverged: %v", err)
	}
}

// TestRetirementIsTerminal retires a replica and asserts it never comes
// back, while the rest keep serving.
func TestRetirementIsTerminal(t *testing.T) {
	p := model.Params{N: 3, D: 1000, U: 200, Epsilon: 100}
	plan := &fault.Plan{
		Name:    "churn",
		Retires: []fault.Retire{{Proc: 2, At: 3000}},
	}
	c := faultCluster(t, p, types.NewQueue(), plan)
	c.Invoke(1000, 0, types.OpEnqueue, int64(1))
	c.Invoke(6000, 1, types.OpEnqueue, int64(2))
	if err := c.Run(100_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := c.Replica(2).LifecycleState(); got != StateRetired {
		t.Fatalf("retired replica state = %s, want retired", got)
	}
	if _, err := c.ConvergedState(); err != nil {
		t.Fatalf("remaining replicas diverged: %v", err)
	}
	st, _ := c.Simulator().FaultStats()
	if st.Retirements != 1 {
		t.Fatalf("Retirements = %d, want 1", st.Retirements)
	}
}

// TestCommonModeDriftKeepsTimerFIFOsExact runs a full workload with every
// clock drifting at the same rate: the replica's timer FIFO math must stay
// exact (pop panics on any desync) and the cluster must converge.
func TestCommonModeDriftKeepsTimerFIFOsExact(t *testing.T) {
	p := model.Params{N: 3, D: 1000, U: 200, Epsilon: 100}
	plan := &fault.Plan{
		Name: "drift-mild",
		Drifts: []fault.Drift{
			{Proc: 0, PPM: -400}, {Proc: 1, PPM: -400}, {Proc: 2, PPM: -400},
		},
	}
	c := faultCluster(t, p, types.NewRMWRegister(0), plan)
	for i := 0; i < 6; i++ {
		c.Invoke(model.Time(1000+i*1500), model.ProcessID(i%3), types.OpRMW, int64(i))
	}
	if err := c.Run(1_000_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if c.History().PendingCount() != 0 {
		t.Fatalf("pending ops = %d, want 0", c.History().PendingCount())
	}
	if _, err := c.ConvergedState(); err != nil {
		t.Fatalf("diverged under common-mode drift: %v", err)
	}
}

// TestDifferentialDriftStillRunsToQuiescence pins that even a harsh
// differential drift (skew far beyond ε) cannot wedge or panic the replica
// machinery — the run completes and every op gets an answer or stays
// pending, never a desync.
func TestDifferentialDriftStillRunsToQuiescence(t *testing.T) {
	p := model.Params{N: 3, D: 1000, U: 200, Epsilon: 100}
	plan := &fault.Plan{
		Name: "drift",
		Drifts: []fault.Drift{
			{Proc: 0, PPM: -20_000}, {Proc: 2, PPM: 20_000},
		},
	}
	c := faultCluster(t, p, types.NewRMWRegister(0), plan)
	for i := 0; i < 8; i++ {
		c.Invoke(model.Time(1000+i*1200), model.ProcessID(i%3), types.OpRMW, int64(i))
	}
	if err := c.Run(1_000_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
}
