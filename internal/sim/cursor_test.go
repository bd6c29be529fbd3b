package sim_test

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"timebounds/internal/fault"
	"timebounds/internal/model"
	"timebounds/internal/sim"
)

// cursorCase is one schedule shape for the cursor equivalence test: what
// is queued up front, the partial Runs to cut the run at, and what is
// done after the last cut before the run goes on to quiescence.
type cursorCase struct {
	name   string
	n      int
	faults func(p model.Params) *fault.Plan
	queue  func(s *sim.Simulator) []sim.Held
	cuts   []model.Time
	mid    func(t *testing.T, s *sim.Simulator, held []sim.Held)
}

func cursorCases() []cursorCase {
	ms := model.Time(time.Millisecond)
	waves := func(s *sim.Simulator) []sim.Held {
		for proc := 0; proc < s.Params().N; proc++ {
			for wave := 0; wave < 6; wave++ {
				s.Invoke(model.Time(wave)*7*ms, model.ProcessID(proc), "op", proc*100+wave)
			}
		}
		return nil
	}
	return []cursorCase{
		{
			// Each process's invocations ascend, on a coarse grid, so the
			// processes share instants and a process repeats one.
			name: "process-major", n: 4,
			queue: func(s *sim.Simulator) []sim.Held {
				rng := rand.New(rand.NewSource(3))
				for proc := 0; proc < s.Params().N; proc++ {
					at := model.Time(0)
					for k := 0; k < 20; k++ {
						at += model.Time(rng.Intn(3)) * ms
						s.Invoke(at, model.ProcessID(proc), "op", proc*100+k)
					}
				}
				return nil
			},
		},
		{
			// Bursts of six at one instant: all but the first defer.
			name: "open-loop-bursts", n: 3,
			queue: func(s *sim.Simulator) []sim.Held {
				for proc := 0; proc < s.Params().N; proc++ {
					for burst := 0; burst < 3; burst++ {
						for k := 0; k < 6; k++ {
							s.Invoke(model.Time(burst)*40*ms, model.ProcessID(proc), "op", proc*100+burst*10+k)
						}
					}
				}
				return nil
			},
		},
		{
			// The crash and the recovery fall on wave instants.
			name: "crash-recover-on-invocations", n: 4,
			faults: func(model.Params) *fault.Plan {
				return &fault.Plan{Name: "on-instants", Crashes: []fault.Crash{{Proc: 3, At: 14 * ms, RecoverAt: 28 * ms}}}
			},
			queue: waves,
		},
		{
			// The hold sits in the cursor across two partial Runs.
			name: "hold-bound-between-runs", n: 3,
			queue: func(s *sim.Simulator) []sim.Held {
				waves(s)
				return []sim.Held{s.Hold(21*ms, 1), s.Hold(21*ms, 2)}
			},
			cuts: []model.Time{8 * ms, 20 * ms},
			mid: func(t *testing.T, s *sim.Simulator, held []sim.Held) {
				if !s.Bind(held[0], "op", 777) {
					t.Fatal("Bind refused a hold that has not come due")
				}
			},
		},
		{
			// Invocations issued mid-run at an instant the cursor holds.
			name: "invoke-mid-run", n: 3,
			queue: waves,
			cuts:  []model.Time{10 * ms},
			mid: func(_ *testing.T, s *sim.Simulator, _ []sim.Held) {
				s.Invoke(14*ms, 0, "op", 900)
				s.Invoke(14*ms, 2, "op", 901)
			},
		},
	}
}

// run drives the case on a fresh simulator. With heapOnly every
// invocation and hold is queued after a Run to a horizon before the first
// event, so it goes on the heap and the cursor holds nothing of it.
func (c cursorCase) run(t *testing.T, heapOnly bool) (outcome, int) {
	t.Helper()
	ms := model.Time(time.Millisecond)
	p := model.Params{N: c.n, D: 10 * ms, U: 4 * ms, Epsilon: 2 * ms}
	var log dispatchLog
	cfg := sim.Config{Params: p, Delay: sim.NewRandomDelay(11, p.MinDelay(), p.D), StrictDelays: true}
	if c.faults != nil {
		in, err := fault.NewInjector(c.faults(p), p.N)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = in
	}
	s, err := sim.New(cfg, chatterProcs(p.N, &log))
	if err != nil {
		t.Fatal(err)
	}
	if heapOnly {
		if err := s.Run(-1); err != nil {
			t.Fatal(err)
		}
	}
	held := c.queue(s)
	scheduled := s.Scheduled()
	for _, cut := range c.cuts {
		if err := s.Run(cut); err != nil {
			t.Fatal(err)
		}
	}
	if c.mid != nil {
		c.mid(t, s, held)
	}
	if err := s.Run(model.Infinity); err != nil {
		t.Fatal(err)
	}
	out := outcome{history: s.History().String(), run: s.Trace(), log: log}
	out.faults, _ = s.FaultStats()
	return out, scheduled
}

// TestScheduleCursorIsUnobservable: dispatching the schedule queued before
// the first Run through the cursor, merged with the heap on (at, seq),
// reports exactly what the same schedule reports when every invocation
// goes through the heap, for unsorted schedules with shared instants, deferring bursts, faults on
// invocation instants, holds bound between partial Runs and invocations
// queued mid-run at instants the cursor still holds.
func TestScheduleCursorIsUnobservable(t *testing.T) {
	for _, c := range cursorCases() {
		t.Run(c.name, func(t *testing.T) {
			want, viaHeap := c.run(t, true)
			if want.history == "" || len(want.log) == 0 || len(want.run.Msgs) == 0 {
				t.Fatal("empty run proves nothing")
			}
			// The fault plan's events were queued first: at any instant
			// they dispatch before the invocations and the run's events,
			// at every process.
			for i := 1; i < len(want.log); i++ {
				prev, d := want.log[i-1], want.log[i]
				fault := d.kind == "crash" || d.kind == "recover"
				if fault && prev.now == d.now && prev.kind != "crash" && prev.kind != "recover" {
					t.Fatalf("%s of %s at %s dispatched after a same-instant %s of %s", d.kind, d.proc, d.now, prev.kind, prev.proc)
				}
			}
			got, viaCursor := c.run(t, false)
			if viaCursor <= viaHeap {
				t.Fatalf("the cursor held %d events, the heap-only reference %d", viaCursor, viaHeap)
			}
			if got.history != want.history {
				t.Errorf("history differs:\ncursor:\n%s\nheap:\n%s", got.history, want.history)
			}
			if !reflect.DeepEqual(got.run, want.run) {
				t.Error("recorded run differs")
			}
			if !reflect.DeepEqual(got.log, want.log) {
				t.Error("dispatch order differs")
			}
			if !reflect.DeepEqual(got.faults, want.faults) {
				t.Errorf("fault stats %+v, heap %+v", got.faults, want.faults)
			}
		})
	}
}
