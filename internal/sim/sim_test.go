package sim_test

import (
	"reflect"
	"testing"
	"time"

	"timebounds/internal/history"
	"timebounds/internal/model"
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
	msgs := s.Messages()
	if len(msgs) != 1 {
		t.Fatalf("want 1 message, got %d", len(msgs))
	}
	if msgs[0].Delay != p.D || msgs[0].RecvAt != p.D {
		t.Errorf("message delay %s recv %s, want %s", msgs[0].Delay, msgs[0].RecvAt, p.D)
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
		for _, m := range s.Messages() {
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
	run := func(mode string) ([]history.Record, []sim.MessageTrace, bool) {
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
		return s.History().Ops(), s.Messages(), late
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
