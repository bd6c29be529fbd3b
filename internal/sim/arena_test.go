package sim_test

import (
	"reflect"
	"testing"
	"time"

	"timebounds/internal/fault"
	"timebounds/internal/model"
	"timebounds/internal/runs"
	"timebounds/internal/sim"
)

// arenaRun is one simulator run shape for the reuse tests.
type arenaRun struct {
	name    string
	n       int
	delay   func(p model.Params) sim.DelayPolicy
	faults  func(p model.Params) *fault.Plan
	horizon model.Time // 0 runs to quiescence
}

func arenaRuns() []arenaRun {
	random := func(p model.Params) sim.DelayPolicy { return sim.NewRandomDelay(7, p.MinDelay(), p.D) }
	fixed := func(p model.Params) sim.DelayPolicy { return sim.FixedDelay(p.D) }
	return []arenaRun{
		{name: "n3-random", n: 3, delay: random},
		{name: "n5-fixed", n: 5, delay: fixed},
		{name: "n4-crash-recover", n: 4, delay: random, faults: fault.CrashRecover},
		{name: "n4-dup", n: 4, delay: fixed, faults: fault.Duplicating},
		// Cut at the horizon with invocations, deliveries and timers still
		// queued: their payloads sit in the slab when it is recycled.
		{name: "n3-cut", n: 3, delay: random, horizon: 15 * model.Time(time.Millisecond)},
	}
}

// outcome is everything a run reports, and the order in which the
// simulator called its processes.
type outcome struct {
	history string
	run     runs.Run
	log     dispatchLog
	faults  fault.Stats
}

// run builds the simulator (on arena, when set), drives the chatter
// workload through it and returns what it reported, recycling it after.
func (r arenaRun) run(t *testing.T, arena *sim.Arena) outcome {
	t.Helper()
	ms := model.Time(time.Millisecond)
	p := model.Params{N: r.n, D: 10 * ms, U: 4 * ms, Epsilon: 2 * ms}
	var log dispatchLog
	cfg := sim.Config{Params: p, Delay: r.delay(p), StrictDelays: true, Arena: arena}
	if r.faults != nil {
		in, err := fault.NewInjector(r.faults(p), p.N)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = in
	}
	s, err := sim.New(cfg, chatterProcs(p.N, &log))
	if err != nil {
		t.Fatal(err)
	}
	if arena != nil && !s.Borrowed() {
		t.Fatalf("%s: an idle arena was not lent", r.name)
	}
	for wave := 0; wave < 6; wave++ {
		at := model.Time(wave) * 7 * ms
		for proc := 0; proc < p.N; proc++ {
			s.Invoke(at, model.ProcessID(proc), "op", wave*10+proc)
			s.Invoke(at+1, model.ProcessID(proc), "op", wave*10+proc+100)
		}
	}
	horizon := r.horizon
	if horizon == 0 {
		horizon = model.Infinity
	}
	if err := s.Run(horizon); err != nil {
		t.Fatalf("%s: %v", r.name, err)
	}
	out := outcome{history: s.History().String(), run: s.Trace(), log: log}
	out.faults, _ = s.FaultStats()
	s.Recycle()
	if arena == nil {
		return out
	}
	if arena.HoldsPayload() {
		t.Fatalf("%s: the recycled slab still references event payloads", r.name)
	}
	if capacity, clean := arena.ScheduleStorage(); capacity == 0 || !clean {
		t.Fatalf("%s: the recycled schedule has capacity %d, empty and zeroed=%v", r.name, capacity, clean)
	}
	return out
}

// TestArenaReuseIsUnobservable: a run on storage an arena lent to an
// earlier, different run — another N, a fault plan, a run cut at its
// horizon with events still queued — reports exactly what the same run
// reports on fresh storage, and its schedule storage comes back empty and
// zeroed.
func TestArenaReuseIsUnobservable(t *testing.T) {
	runs := arenaRuns()
	fresh := make([]outcome, len(runs))
	for i, r := range runs {
		fresh[i] = r.run(t, nil)
		if fresh[i].history == "" || len(fresh[i].log) == 0 || len(fresh[i].run.Msgs) == 0 {
			t.Fatalf("%s: empty run proves nothing", r.name)
		}
	}
	for _, a := range runs {
		for i, b := range runs {
			arena := sim.NewArena()
			a.run(t, arena)
			got := b.run(t, arena)
			if got.history != fresh[i].history {
				t.Errorf("%s after %s: history differs from a fresh run", b.name, a.name)
			}
			if !reflect.DeepEqual(got.run, fresh[i].run) {
				t.Errorf("%s after %s: recorded run differs from a fresh run", b.name, a.name)
			}
			if !reflect.DeepEqual(got.log, fresh[i].log) {
				t.Errorf("%s after %s: dispatch order differs from a fresh run", b.name, a.name)
			}
			if !reflect.DeepEqual(got.faults, fresh[i].faults) {
				t.Errorf("%s after %s: fault stats %+v, fresh %+v", b.name, a.name, got.faults, fresh[i].faults)
			}
		}
	}
}

// TestArenaIsLentOnce: a simulator built while the arena is lent out gets
// fresh storage, a failed New lends nothing, and Recycle makes the arena
// available again.
func TestArenaIsLentOnce(t *testing.T) {
	p := params(2)
	procs := []sim.Process{&echoProc{}, &echoProc{}}
	arena := sim.NewArena()
	cfg := sim.Config{Params: p, Arena: arena}

	bad := cfg
	bad.Faults, _ = fault.NewInjector(fault.CrashRecover(params(3)), 3)
	if _, err := sim.New(bad, procs); err == nil {
		t.Fatal("a fault injector for n=3 was accepted for n=2")
	}
	first, err := sim.New(cfg, procs)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Borrowed() {
		t.Fatal("a failed New left the arena lent out")
	}
	second, err := sim.New(cfg, procs)
	if err != nil {
		t.Fatal(err)
	}
	if second.Borrowed() {
		t.Fatal("an arena already lent out was lent a second time")
	}
	// Both run independently: the fresh one must not share the slab.
	first.Invoke(0, 0, "broadcast", nil)
	second.Invoke(0, 1, "broadcast", nil)
	if err := first.Run(model.Infinity); err != nil {
		t.Fatal(err)
	}
	if err := second.Run(model.Infinity); err != nil {
		t.Fatal(err)
	}
	if first.History().Len() != 1 || second.History().Len() != 1 {
		t.Fatalf("histories hold %d and %d records, want 1 each", first.History().Len(), second.History().Len())
	}
	second.Recycle() // fresh storage: must not be handed to the arena
	third, err := sim.New(cfg, procs)
	if err != nil {
		t.Fatal(err)
	}
	if third.Borrowed() {
		t.Fatal("recycling a simulator on fresh storage released the arena it never borrowed")
	}
	first.Recycle()
	first.Recycle() // idempotent
	fourth, err := sim.New(cfg, procs)
	if err != nil {
		t.Fatal(err)
	}
	if !fourth.Borrowed() {
		t.Fatal("Recycle did not hand the storage back")
	}
}

// TestDeferralBurstReusesItsQueue drives open-loop bursts into one
// process: each deferred invocation runs one tick after its predecessor
// responds, in offer order, with its arrival kept; popped slots are zeroed
// so their arguments are not kept reachable; and a drained queue rewinds,
// so the next burst reuses the same backing array.
func TestDeferralBurstReusesItsQueue(t *testing.T) {
	ms := model.Time(time.Millisecond)
	s, err := sim.New(sim.Config{Params: params(2)}, []sim.Process{&slowProc{wait: 5 * ms}, &slowProc{wait: 5 * ms}})
	if err != nil {
		t.Fatal(err)
	}
	const burst = 8
	firstCap := 0
	for round := 0; round < 2; round++ {
		at := model.Time(round) * model.Time(time.Second)
		for k := 0; k < burst; k++ {
			s.Invoke(at, 0, "op", round*burst+k)
		}
		// Mid-burst: three invoked, two answered, five still waiting.
		if err := s.Run(at + 12*ms); err != nil {
			t.Fatal(err)
		}
		if waiting, _, clean := s.DeferredQueue(0); waiting != burst-3 || !clean {
			t.Fatalf("round %d mid-burst: %d waiting (want %d), popped slots zeroed=%v", round, waiting, burst-3, clean)
		}
		if err := s.Run(model.Infinity); err != nil {
			t.Fatal(err)
		}
		waiting, capacity, clean := s.DeferredQueue(0)
		if waiting != 0 || !clean {
			t.Fatalf("round %d drained: %d waiting, slots zeroed=%v", round, waiting, clean)
		}
		if round == 0 {
			firstCap = capacity
			if capacity < burst-1 {
				t.Fatalf("drained queue kept capacity %d, want ≥ %d", capacity, burst-1)
			}
		} else if capacity != firstCap {
			t.Fatalf("second burst regrew the queue: capacity %d → %d", firstCap, capacity)
		}
	}
	ops := s.History().Ops()
	if len(ops) != 2*burst {
		t.Fatalf("%d records, want %d", len(ops), 2*burst)
	}
	for i, op := range ops {
		round, k := i/burst, i%burst
		at := model.Time(round) * model.Time(time.Second)
		if op.Arg != i || op.Arrival != at || op.Invoke != at+model.Time(k)*(5*ms+1) {
			t.Errorf("record %d: arg %v arrival %s invoke %s; want arg %d arrival %s invoke %s",
				i, op.Arg, op.Arrival, op.Invoke, i, at, at+model.Time(k)*(5*ms+1))
		}
	}
}
