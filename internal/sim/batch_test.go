package sim_test

import (
	"testing"
	"time"

	"timebounds/internal/history"
	"timebounds/internal/model"
	"timebounds/internal/sim"
	"timebounds/internal/spec"
)

// chatterProc stresses every event kind: each invocation broadcasts a
// round, arms two timers (one canceled), and responds on the second
// timer; each received message is echoed back once. With a log it notes
// every handler the simulator calls, crash and recovery included, in the
// order of the calls.
type chatterProc struct {
	self   model.ProcessID
	echoed map[int]bool
	log    *dispatchLog
}

// dispatch is one handler call: the process, its clock at the call and
// the step's kind. Runs that read a log use drift-free clocks at offset
// zero, so the clock is also the real time.
type dispatch struct {
	proc model.ProcessID
	now  model.Time
	kind string
}

// dispatchLog is the global order in which the simulator called the
// processes of one run, which per-process views cannot show.
type dispatchLog []dispatch

func (c *chatterProc) note(now model.Time, kind string) {
	if c.log != nil {
		*c.log = append(*c.log, dispatch{proc: c.self, now: now, kind: kind})
	}
}

var _ sim.Restartable = (*chatterProc)(nil)

type respondTimer struct{ id history.OpID }
type doomedTimer struct{}

func (c *chatterProc) OnInvoke(env sim.Env, id history.OpID, kind spec.OpKind, arg spec.Value) {
	c.note(env.ClockTime(), "invoke")
	tag, _ := arg.(int)
	env.Broadcast(sim.Msg{Seq: int64(tag)}) // hop 0 of round tag
	doomed := env.SetTimerAfter(3*model.Time(time.Millisecond), doomedTimer{})
	env.SetTimerAfter(5*model.Time(time.Millisecond), respondTimer{id: id})
	env.CancelTimer(doomed)
}

func (c *chatterProc) OnMessage(env sim.Env, from model.ProcessID, m sim.Msg) {
	c.note(env.ClockTime(), "deliver")
	if m.Tag > 0 { // an echo: hop 1
		return
	}
	if c.echoed == nil {
		c.echoed = make(map[int]bool)
	}
	if tag := int(m.Seq); !c.echoed[tag] {
		c.echoed[tag] = true
		env.Send(from, sim.Msg{Tag: 1, Seq: m.Seq})
	}
}

func (c *chatterProc) OnTimer(env sim.Env, payload any) {
	c.note(env.ClockTime(), "timer")
	switch t := payload.(type) {
	case respondTimer:
		env.Respond(t.id, nil)
	case doomedTimer:
		panic("canceled timer fired")
	}
}

// Crash and Recover only note the step: a chatterProc keeps its state
// across an outage, as a process that is not Restartable would.
func (c *chatterProc) Crash(at model.Time) { c.note(at, "crash") }
func (c *chatterProc) Recover(env sim.Env) { c.note(env.ClockTime(), "recover") }

// chatterProcs builds n chatter processes that share one log.
func chatterProcs(n int, log *dispatchLog) []sim.Process {
	procs := make([]sim.Process, n)
	for i := range procs {
		procs[i] = &chatterProc{self: model.ProcessID(i), log: log}
	}
	return procs
}

func chatterSim(t *testing.T, delay sim.DelayPolicy) *sim.Simulator {
	t.Helper()
	p := model.Params{N: 3, D: 10 * model.Time(time.Millisecond), U: 4 * model.Time(time.Millisecond),
		Epsilon: 2 * model.Time(time.Millisecond)}
	s, err := sim.New(sim.Config{
		Params:       p,
		ClockOffsets: []model.Time{0, p.Epsilon / 2, -p.Epsilon / 2},
		Delay:        delay,
		StrictDelays: true,
	}, chatterProcs(p.N, nil))
	if err != nil {
		t.Fatal(err)
	}
	// Colliding timestamps on purpose: simultaneous invocations at several
	// processes, plus back-to-back (deferred) invocations.
	ms := model.Time(time.Millisecond)
	for wave := 0; wave < 6; wave++ {
		at := model.Time(wave) * 7 * ms
		for proc := 0; proc < p.N; proc++ {
			s.Invoke(at, model.ProcessID(proc), "op", wave*10+proc)
			s.Invoke(at+1, model.ProcessID(proc), "op", wave*10+proc+100)
		}
	}
	return s
}

// TestStaticDelayMatrixPrecomputed: fixed and matrix policies flatten into
// the per-pair matrix; the seeded random policy must not.
func TestStaticDelayMatrixPrecomputed(t *testing.T) {
	ms := model.Time(time.Millisecond)
	if s := chatterSim(t, sim.FixedDelay(10*ms)); !s.StaticDelayMatrix() {
		t.Error("FixedDelay should precompute a static delay matrix")
	}
	if s := chatterSim(t, sim.NewMatrixDelay(3, 10*ms)); !s.StaticDelayMatrix() {
		t.Error("MatrixDelay should precompute a static delay matrix")
	}
	if s := chatterSim(t, sim.NewRandomDelay(1, 6*ms, 10*ms)); s.StaticDelayMatrix() {
		t.Error("RandomDelay must not claim a static delay matrix")
	}
}

// TestStaticMatrixMatchesPolicyDelays: the precomputed-matrix fast path
// must deliver exactly the delays the policy interface would.
func TestStaticMatrixMatchesPolicyDelays(t *testing.T) {
	ms := model.Time(time.Millisecond)
	m := sim.NewMatrixDelay(3, 10*ms).Set(0, 1, 6*ms).Set(2, 0, 8*ms)
	s := chatterSim(t, m)
	if err := s.Run(model.Infinity); err != nil {
		t.Fatal(err)
	}
	for _, msg := range s.Trace().Msgs {
		want := m.Delay(msg.From, msg.To, msg.SentAt, msg.Seq)
		if msg.Delay() != want {
			t.Fatalf("message %d %s→%s delayed %s, policy says %s",
				msg.Seq, msg.From, msg.To, msg.Delay(), want)
		}
	}
}

// quietProc is a minimal steady-state process: every invocation broadcasts
// once and responds on a timer; messages are absorbed.
type quietProc struct{}

func (quietProc) OnInvoke(env sim.Env, id history.OpID, _ spec.OpKind, _ spec.Value) {
	env.Broadcast(sim.Msg{Arg: 7})
	env.SetTimerAfter(2*model.Time(time.Millisecond), respondTimer{id: id})
}
func (quietProc) OnMessage(sim.Env, model.ProcessID, sim.Msg) {}
func (q quietProc) OnTimer(env sim.Env, payload any) {
	if t, ok := payload.(respondTimer); ok {
		env.Respond(t.id, nil)
	}
}

// TestEventLoopAllocs is the allocation-regression guard on the event
// loop: once the event slab, heap, and pools are warm, pushing a wave of
// invocations through Run must stay within a small per-wave allocation
// budget (history records and timer-map growth amortize; events, heap
// traffic, and Envs must not allocate at all).
func TestEventLoopAllocs(t *testing.T) {
	ms := model.Time(time.Millisecond)
	p := model.Params{N: 4, D: 10 * ms, U: 4 * ms, Epsilon: 2 * ms}
	procs := make([]sim.Process, p.N)
	for i := range procs {
		procs[i] = quietProc{}
	}
	s, err := sim.New(sim.Config{Params: p, Delay: sim.FixedDelay(10 * ms), StrictDelays: true,
		DiscardTraces: true}, procs)
	if err != nil {
		t.Fatal(err)
	}
	at := model.Time(0)
	wave := func() {
		for proc := 0; proc < p.N; proc++ {
			s.Invoke(at, model.ProcessID(proc), "op", nil)
		}
		at += 20 * ms
		if err := s.Run(at); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		wave() // warm the slab, heap, pools, and history capacity
	}
	// Each wave is 4 invokes + 12 sends/deliveries + 4 timers = 20 events.
	const eventsPerWave = 20
	avg := testing.AllocsPerRun(50, wave)
	if avg > 8 {
		t.Errorf("event loop allocates %.1f allocs per %d-event wave (budget 8): "+
			"the pooled loop should only pay amortized history/map growth", avg, eventsPerWave)
	}
}
