package sim_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"timebounds/internal/fault"
	"timebounds/internal/history"
	"timebounds/internal/model"
	"timebounds/internal/runs"
	"timebounds/internal/sim"
	"timebounds/internal/spec"
)

func params(n int) model.Params {
	return model.Params{
		N:       n,
		D:       10 * time.Millisecond,
		U:       4 * time.Millisecond,
		Epsilon: 3 * time.Millisecond,
	}
}

// echoProc responds to every invocation immediately with its argument, and
// can ping-pong messages and set timers, for exercising the simulator.
type echoProc struct {
	gotMsgs   []sim.Msg
	timerFire []model.Time
}

func (e *echoProc) OnInvoke(env sim.Env, id history.OpID, kind spec.OpKind, arg spec.Value) {
	switch kind {
	case "echo":
		env.Respond(id, arg)
	case "send":
		env.Send(model.ProcessID(arg.(int)), ping)
		env.Respond(id, nil)
	case "broadcast":
		env.Broadcast(sim.Msg{Arg: "hello"})
		env.Respond(id, nil)
	case "timer":
		env.SetTimerAfter(arg.(model.Time), "t")
		env.Respond(id, nil)
	case "timer-cancel":
		tid := env.SetTimerAfter(arg.(model.Time), "t")
		env.CancelTimer(tid)
		env.Respond(id, nil)
	}
}

func (e *echoProc) OnMessage(_ sim.Env, _ model.ProcessID, m sim.Msg) {
	e.gotMsgs = append(e.gotMsgs, m)
}

// ping is the message echoProc sends, with every field set.
var ping = sim.Msg{Tag: 1, Origin: 2, Seq: 3, Clock: 4, Op: 5, Kind: "ping", Arg: "ping"}

func (e *echoProc) OnTimer(env sim.Env, _ any) {
	e.timerFire = append(e.timerFire, env.ClockTime())
}

func newSim(t *testing.T, cfg sim.Config, n int) (*sim.Simulator, []*echoProc) {
	t.Helper()
	if cfg.Params.N == 0 {
		cfg.Params = params(n)
	}
	procs := make([]sim.Process, n)
	echos := make([]*echoProc, n)
	for i := range procs {
		echos[i] = &echoProc{}
		procs[i] = echos[i]
	}
	s, err := sim.New(cfg, procs)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	return s, echos
}

func TestInvokeRespond(t *testing.T) {
	s, _ := newSim(t, sim.Config{}, 2)
	s.Invoke(0, 0, "echo", 42)
	if err := s.Run(model.Infinity); err != nil {
		t.Fatalf("Run: %v", err)
	}
	ops := s.History().Ops()
	if len(ops) != 1 || ops[0].Pending || !spec.ValueEqual(ops[0].Ret, 42) {
		t.Fatalf("unexpected history: %v", ops)
	}
	if ops[0].Latency() != 0 {
		t.Errorf("echo latency %s, want 0", ops[0].Latency())
	}
}

func TestMessageDelayApplied(t *testing.T) {
	p := params(2)
	s, echos := newSim(t, sim.Config{Params: p, Delay: sim.FixedDelay(p.D)}, 2)
	s.Invoke(0, 0, "send", 1)
	if err := s.Run(model.Infinity); err != nil {
		t.Fatalf("Run: %v", err)
	}
	msgs := s.Trace().Msgs
	if len(msgs) != 1 {
		t.Fatalf("want 1 message, got %d", len(msgs))
	}
	if msgs[0].Delay() != p.D || msgs[0].RecvAt != p.D {
		t.Errorf("message delay %s recv %s, want %s", msgs[0].Delay(), msgs[0].RecvAt, p.D)
	}
	if len(echos[1].gotMsgs) != 1 || echos[1].gotMsgs[0] != ping {
		t.Errorf("recipient got %+v, want [%+v]", echos[1].gotMsgs, ping)
	}
}

func TestBroadcastReachesAllOthers(t *testing.T) {
	s, echos := newSim(t, sim.Config{}, 4)
	s.Invoke(0, 2, "broadcast", nil)
	if err := s.Run(model.Infinity); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, e := range echos {
		want := 1
		if i == 2 {
			want = 0 // no self-delivery
		}
		if len(e.gotMsgs) != want {
			t.Errorf("process %d got %d messages, want %d", i, len(e.gotMsgs), want)
		}
	}
}

func TestStrictDelaysRejectOutOfRange(t *testing.T) {
	p := params(2)
	s, _ := newSim(t, sim.Config{
		Params:       p,
		Delay:        sim.FixedDelay(p.D + 1),
		StrictDelays: true,
	}, 2)
	s.Invoke(0, 0, "send", 1)
	if err := s.Run(model.Infinity); err == nil {
		t.Error("expected error for delay > d under StrictDelays")
	}
}

func TestClockOffsetsVisibleToProcess(t *testing.T) {
	p := params(2)
	off := []model.Time{0, -p.Epsilon}
	s, echos := newSim(t, sim.Config{Params: p, ClockOffsets: off}, 2)
	s.Invoke(5*time.Millisecond, 1, "timer", model.Time(0))
	if err := s.Run(model.Infinity); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(echos[1].timerFire) != 1 {
		t.Fatalf("timer fired %d times, want 1", len(echos[1].timerFire))
	}
	wantClock := model.Time(5*time.Millisecond) - p.Epsilon
	if echos[1].timerFire[0] != wantClock {
		t.Errorf("timer clock time %s, want %s", echos[1].timerFire[0], wantClock)
	}
}

func TestClockSkewValidation(t *testing.T) {
	p := params(2)
	_, err := sim.New(sim.Config{
		Params:       p,
		ClockOffsets: []model.Time{0, p.Epsilon + 1},
	}, make([]sim.Process, 2))
	if err == nil {
		t.Error("expected skew > ε to be rejected")
	}
}

func TestTimerCancel(t *testing.T) {
	s, echos := newSim(t, sim.Config{}, 1)
	s.Invoke(0, 0, "timer-cancel", model.Time(time.Millisecond))
	if err := s.Run(model.Infinity); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(echos[0].timerFire) != 0 {
		t.Errorf("canceled timer fired %d times", len(echos[0].timerFire))
	}
}

func TestOnePendingOpPerProcessDefers(t *testing.T) {
	// A process with a pending op defers the next invocation until just
	// after the response.
	p := params(2)
	procs := []sim.Process{&slowProc{wait: p.D}, &slowProc{wait: p.D}}
	s, err := sim.New(sim.Config{Params: p}, procs)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	s.Invoke(0, 0, "op", nil)
	s.Invoke(1, 0, "op", nil) // lands while the first is pending
	if err := s.Run(model.Infinity); err != nil {
		t.Fatalf("Run: %v", err)
	}
	ops := s.History().Ops()
	if len(ops) != 2 {
		t.Fatalf("want 2 ops, got %d", len(ops))
	}
	if ops[1].Invoke <= ops[0].Respond-1 {
		t.Errorf("second op invoked at %s, before first responded at %s", ops[1].Invoke, ops[0].Respond)
	}
}

// slowProc responds after a fixed wait.
type slowProc struct{ wait model.Time }

func (s *slowProc) OnInvoke(env sim.Env, id history.OpID, _ spec.OpKind, _ spec.Value) {
	env.SetTimerAfter(s.wait, id)
}
func (s *slowProc) OnMessage(sim.Env, model.ProcessID, sim.Msg) {}
func (s *slowProc) OnTimer(env sim.Env, payload any) {
	if id, ok := payload.(history.OpID); ok {
		env.Respond(id, nil)
	}
}

func TestDeterministicReplay(t *testing.T) {
	runOnce := func() []string {
		p := params(3)
		s, _ := newSim(t, sim.Config{
			Params: p,
			Delay:  sim.NewRandomDelay(42, p.MinDelay(), p.D),
		}, 3)
		s.Invoke(0, 0, "broadcast", nil)
		s.Invoke(time.Millisecond, 1, "broadcast", nil)
		s.Invoke(2*time.Millisecond, 2, "broadcast", nil)
		if err := s.Run(model.Infinity); err != nil {
			t.Fatalf("Run: %v", err)
		}
		var log []string
		for _, m := range s.Trace().Msgs {
			log = append(log, m.From.String()+m.To.String()+m.RecvAt.String())
		}
		return log
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatalf("different message counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at message %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestSelfSendRejected(t *testing.T) {
	p := params(2)
	procs := []sim.Process{&selfSender{}, &selfSender{}}
	s, err := sim.New(sim.Config{Params: p}, procs)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	s.Invoke(0, 0, "op", nil)
	if err := s.Run(model.Infinity); err == nil {
		t.Error("self-send should produce an error")
	}
}

type selfSender struct{}

func (s *selfSender) OnInvoke(env sim.Env, id history.OpID, _ spec.OpKind, _ spec.Value) {
	env.Send(env.Self(), sim.Msg{})
	env.Respond(id, nil)
}
func (s *selfSender) OnMessage(sim.Env, model.ProcessID, sim.Msg) {}
func (s *selfSender) OnTimer(sim.Env, any)                        {}

// TestHoldBindsInPlace pins what a migrating store relies on: a held
// invocation bound before it comes due runs exactly where Invoke would
// have queued it — same history, same message order, even against events
// created later for the same instant — and one left unbound leaves no
// trace, while a late Bind is refused.
func TestHoldBindsInPlace(t *testing.T) {
	p := params(3)
	run := func(mode string) ([]history.Record, []runs.Message, bool) {
		s, _ := newSim(t, sim.Config{Params: p, Delay: sim.NewRandomDelay(7, p.MinDelay(), p.D)}, 3)
		s.Invoke(0, 0, "broadcast", nil)
		var h sim.Held
		switch mode {
		case "invoke":
			s.Invoke(p.D, 1, "broadcast", nil)
		case "hold", "unbound":
			h = s.Hold(p.D, 1)
		}
		s.Invoke(p.D, 2, "broadcast", nil)
		if err := s.Run(p.D - 1); err != nil {
			t.Fatal(err)
		}
		if mode == "hold" && !s.Bind(h, "broadcast", nil) {
			t.Fatal("Bind refused a hold that has not come due")
		}
		if err := s.Run(model.Infinity); err != nil {
			t.Fatal(err)
		}
		late := s.Bind(h, "broadcast", nil)
		return s.History().Ops(), s.Trace().Msgs, late
	}
	wantOps, wantMsgs, _ := run("invoke")
	gotOps, gotMsgs, late := run("hold")
	if !reflect.DeepEqual(gotOps, wantOps) || !reflect.DeepEqual(gotMsgs, wantMsgs) {
		t.Fatalf("bound hold diverged from Invoke:\n%v\n%v", gotOps, wantOps)
	}
	if late {
		t.Error("Bind accepted a hold that already came due")
	}
	noneOps, noneMsgs, _ := run("none")
	unboundOps, unboundMsgs, _ := run("unbound")
	if !reflect.DeepEqual(unboundOps, noneOps) || !reflect.DeepEqual(unboundMsgs, noneMsgs) {
		t.Fatalf("unbound hold left a trace:\n%v\n%v", unboundOps, noneOps)
	}
}

// TestTraceIsTheCallersCopy: the run Trace returns is the caller's to
// change. A faulted run — a lost message, a duplicate, a message dropped
// at a down process, a crash and a recovery — is traced twice, and
// rewriting every step and message of the first trace leaves the second,
// and a third taken after, as the run recorded them.
func TestTraceIsTheCallersCopy(t *testing.T) {
	ms := model.Time(time.Millisecond)
	p := model.Params{N: 4, D: 10 * ms, U: 4 * ms, Epsilon: 2 * ms}
	in, err := fault.NewInjector(&fault.Plan{
		Name:    "mixed",
		Crashes: []fault.Crash{{Proc: 3, At: 12 * ms, RecoverAt: 30 * ms}},
		Losses:  []fault.Loss{{From: 0, To: -1, Start: 0, End: 8 * ms, Every: 2}},
		Dups:    []fault.Duplicate{{From: 1, To: -1, Start: 0, End: 8 * ms, Copies: 2, Spacing: 1}},
	}, p.N)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(sim.Config{Params: p, Delay: sim.FixedDelay(p.D), Faults: in}, chatterProcs(p.N, nil))
	if err != nil {
		t.Fatal(err)
	}
	for wave := 0; wave < 4; wave++ {
		for proc := 0; proc < p.N; proc++ {
			s.Invoke(model.Time(wave)*7*ms, model.ProcessID(proc), "op", wave*10+proc)
		}
	}
	if err := s.Run(model.Infinity); err != nil {
		t.Fatal(err)
	}
	st, _ := s.FaultStats()
	if st.Lost == 0 || st.Duplicates == 0 || st.DroppedToDown == 0 || st.Crashes == 0 || st.Recoveries == 0 {
		t.Fatalf("the plan did not bite: %+v", st)
	}
	first, second := s.Trace(), s.Trace()
	want := fmt.Sprintf("%+v", second)
	var dups, unreceived int
	for _, m := range second.Msgs {
		if m.Dup {
			dups++
		}
		if !m.Received() {
			unreceived++
		}
	}
	if dups == 0 || unreceived < st.Lost+st.DroppedToDown {
		t.Fatalf("%d duplicates and %d unreceived messages recorded; stats %+v", dups, unreceived, st)
	}
	for i := range first.Views {
		for j := range first.Views[i].Steps {
			first.Views[i].Steps[j] = runs.Step{RealTime: -1, Kind: "rewritten"}
		}
		first.Views[i].Steps = append(first.Views[i].Steps, runs.Step{Kind: "appended"})
	}
	for i := range first.Msgs {
		first.Msgs[i] = runs.Message{Seq: -1, RecvAt: 0, Dup: true}
	}
	first.Msgs = append(first.Msgs, runs.Message{Seq: -2})
	if got := fmt.Sprintf("%+v", second); got != want {
		t.Fatalf("rewriting one trace changed another:\n%s\nwas\n%s", got, want)
	}
	if got := fmt.Sprintf("%+v", s.Trace()); got != want {
		t.Fatalf("rewriting a trace changed the simulator's record:\n%s\nwas\n%s", got, want)
	}
}
