package runs_test

import (
	"testing"
	"time"

	"timebounds/internal/core"
	"timebounds/internal/model"
	"timebounds/internal/runs"
	"timebounds/internal/sim"
	"timebounds/internal/types"
)

func TestAppendRuns(t *testing.T) {
	p := params(2)
	r1 := twoProcRun(p, p.D, p.D)
	r1.Views[0].End = 40 * ms
	r1.Views[1].End = 40 * ms

	r2 := runs.Run{
		Params: p,
		Views: []runs.TimedView{
			{Proc: 0, End: model.Infinity, Steps: []runs.Step{{RealTime: 50 * ms, Kind: "invoke"}}},
			{Proc: 1, End: model.Infinity, Steps: []runs.Step{{RealTime: 50*ms + p.D, Kind: "deliver"}}},
		},
		Msgs: []runs.Message{{Seq: 0, From: 0, To: 1, SentAt: 50 * ms, RecvAt: 50*ms + p.D}},
	}
	joined, err := runs.Append(r1, r2)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	// Claim B.4: the result is a run.
	if err := runs.CheckRun(joined); err != nil {
		t.Fatalf("appended result is not a run: %v", err)
	}
	if got := len(joined.Msgs); got != len(r1.Msgs)+len(r2.Msgs) {
		t.Errorf("message count %d", got)
	}
	if got := len(joined.Views[0].Steps); got != len(r1.Views[0].Steps)+1 {
		t.Errorf("p0 step count %d", got)
	}
}

func TestAppendableRejections(t *testing.T) {
	p := params(2)
	infinite := twoProcRun(p, p.D, p.D) // views end at Infinity
	r2 := runs.Run{Params: p, Views: []runs.TimedView{
		{Proc: 0, End: model.Infinity}, {Proc: 1, End: model.Infinity},
	}}
	if err := runs.Appendable(infinite, r2); err == nil {
		t.Error("appending to an infinite run should fail")
	}

	finite := twoProcRun(p, p.D, p.D)
	finite.Views[0].End = 40 * ms
	finite.Views[1].End = 40 * ms
	badClock := r2
	badClock.Views = []runs.TimedView{
		{Proc: 0, End: model.Infinity, ClockOffset: time.Millisecond},
		{Proc: 1, End: model.Infinity},
	}
	if err := runs.Appendable(finite, badClock); err == nil {
		t.Error("differing clock functions should fail (appendable requires same clocks)")
	}

	early := runs.Run{Params: p, Views: []runs.TimedView{
		{Proc: 0, End: model.Infinity, Steps: []runs.Step{{RealTime: 0, Kind: "invoke"}}},
		{Proc: 1, End: model.Infinity},
	}}
	if err := runs.Appendable(finite, early); err == nil {
		t.Error("r2 step before r1's last step should fail")
	}
}

func TestTruncateThenAppendRoundTrip(t *testing.T) {
	// Truncating a run and appending the remainder-shaped suffix
	// reconstructs a well-formed run.
	p := params(2)
	r := twoProcRun(p, p.D-p.U/2, p.D-p.U/2)
	prefix, err := runs.Truncate(r, []model.Time{5 * ms})
	if err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	if err := runs.CheckRun(prefix); err != nil {
		t.Fatalf("prefix is not a run: %v", err)
	}
	for _, v := range prefix.Views {
		if v.End != 5*ms {
			t.Errorf("%s end %s, want 5ms", v.Proc, v.End)
		}
		for _, st := range v.Steps {
			if st.RealTime >= 5*ms {
				t.Errorf("step at %s survived truncation", st.RealTime)
			}
		}
	}
	// A message sent inside but received outside the horizon becomes
	// unreceived.
	for _, m := range prefix.Msgs {
		if m.Received() && m.RecvAt >= 5*ms {
			t.Errorf("message %d still received at %s", m.Seq, m.RecvAt)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	// Runs the simulator records satisfy CheckRun and Admissible, and
	// carry the simulator's offsets.
	p := params(3)
	p.Epsilon = 3 * time.Millisecond
	offsets := []model.Time{0, -time.Millisecond, time.Millisecond}
	cluster, err := core.NewCluster(core.Config{Params: p}, types.NewQueue(), sim.Config{
		ClockOffsets: offsets,
		Delay:        sim.NewRandomDelay(21, p.MinDelay(), p.D),
		StrictDelays: true,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	cluster.Invoke(0, 0, types.OpEnqueue, 1)
	cluster.Invoke(p.D, 1, types.OpEnqueue, 2)
	cluster.Invoke(4*p.D, 2, types.OpDequeue, nil)
	if err := cluster.Run(model.Infinity); err != nil {
		t.Fatalf("Run: %v", err)
	}
	r := cluster.Simulator().Trace()
	if err := runs.CheckRun(r); err != nil {
		t.Fatalf("CheckRun: %v", err)
	}
	if err := runs.Admissible(r); err != nil {
		t.Fatalf("Admissible: %v", err)
	}
	for i, v := range r.Views {
		if v.ClockOffset != offsets[i] {
			t.Errorf("view %d offset %s, want %s", i, v.ClockOffset, offsets[i])
		}
		if len(v.Steps) == 0 {
			t.Errorf("view %d has no steps", i)
		}
	}
	if len(r.Msgs) == 0 {
		t.Error("no messages recorded")
	}
}
