package tracefmt_test

import (
	"strings"
	"testing"
	"time"

	"timebounds/internal/core"
	"timebounds/internal/engine"
	"timebounds/internal/model"
	"timebounds/internal/runs"
	"timebounds/internal/sim"
	"timebounds/internal/tracefmt"
	"timebounds/internal/types"
)

func sampleCluster(t *testing.T) *core.Cluster {
	t.Helper()
	p := model.Params{N: 3, D: 10 * time.Millisecond, U: 4 * time.Millisecond}
	p.Epsilon = p.OptimalSkew()
	c, err := core.NewCluster(core.Config{Params: p}, types.NewRegister(0), sim.Config{
		Delay:        sim.FixedDelay(p.D),
		StrictDelays: true,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	c.Invoke(0, 0, types.OpWrite, 1)
	c.Invoke(30*time.Millisecond, 1, types.OpRead, nil)
	if err := c.Run(model.Infinity); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return c
}

func TestDiagramRender(t *testing.T) {
	c := sampleCluster(t)
	out := tracefmt.Diagram(c.Simulator().Trace(), c.History().Ops())
	if !strings.Contains(out, "p0") || !strings.Contains(out, "p2") {
		t.Errorf("missing lanes:\n%s", out)
	}
	if !strings.Contains(out, "[") || !strings.Contains(out, "]") {
		t.Errorf("missing operation intervals:\n%s", out)
	}
	if !strings.Contains(out, "ops:") {
		t.Errorf("missing ops legend:\n%s", out)
	}
	checkLanes(t, out, 3)
}

// checkLanes asserts that out draws n lanes, each 100 columns wide.
func checkLanes(t *testing.T, out string, n int) {
	t.Helper()
	var lanes []int
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "p") {
			_, lane, _ := strings.Cut(line, "|")
			lanes = append(lanes, len(strings.TrimSuffix(lane, "|")))
		}
	}
	if len(lanes) != n {
		t.Fatalf("%d lanes, want %d:\n%s", len(lanes), n, out)
	}
	for _, w := range lanes {
		if w != 100 {
			t.Errorf("lane widths %v, want 100 each", lanes)
			return
		}
	}
}

func TestDiagramEmptyRun(t *testing.T) {
	r := runs.Run{
		Params: model.Params{N: 2, D: time.Millisecond, U: 0},
		Views:  []runs.TimedView{{Proc: 0, End: model.Infinity}, {Proc: 1, End: model.Infinity}},
	}
	checkLanes(t, tracefmt.Diagram(r, nil), 2)
}

func TestRunJSONRoundTrip(t *testing.T) {
	r := sampleCluster(t).Simulator().Trace()
	data, err := tracefmt.MarshalRun(r)
	if err != nil {
		t.Fatalf("MarshalRun: %v", err)
	}
	back, err := tracefmt.UnmarshalRun(data)
	if err != nil {
		t.Fatalf("UnmarshalRun: %v", err)
	}
	if back.Params != r.Params {
		t.Errorf("params changed: %+v vs %+v", back.Params, r.Params)
	}
	if len(back.Views) != len(r.Views) || len(back.Msgs) != len(r.Msgs) {
		t.Fatalf("shape changed: %d/%d views, %d/%d msgs",
			len(back.Views), len(r.Views), len(back.Msgs), len(r.Msgs))
	}
	for i := range r.Views {
		if back.Views[i].ClockOffset != r.Views[i].ClockOffset ||
			back.Views[i].End != r.Views[i].End ||
			len(back.Views[i].Steps) != len(r.Views[i].Steps) {
			t.Errorf("view %d changed", i)
		}
	}
	for i := range r.Msgs {
		if back.Msgs[i] != r.Msgs[i] {
			t.Errorf("msg %d changed: %+v vs %+v", i, back.Msgs[i], r.Msgs[i])
		}
	}
	// Round-tripped runs still pass the run checks.
	if err := runs.CheckRun(back); err != nil {
		t.Errorf("round-tripped run invalid: %v", err)
	}
	if err := runs.Admissible(back); err != nil {
		t.Errorf("round-tripped run inadmissible: %v", err)
	}
}

func TestUnreceivedMessageJSON(t *testing.T) {
	r := runs.Run{
		Params: model.Params{N: 2, D: time.Millisecond, U: 0},
		Views: []runs.TimedView{
			{Proc: 0, End: 500 * time.Microsecond},
			{Proc: 1, End: 500 * time.Microsecond},
		},
		Msgs: []runs.Message{{Seq: 0, From: 0, To: 1, SentAt: 0, RecvAt: model.Infinity}},
	}
	data, err := tracefmt.MarshalRun(r)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "recvAtNanos") {
		t.Error("unreceived message should omit recvAtNanos")
	}
	back, err := tracefmt.UnmarshalRun(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Msgs[0].Received() {
		t.Error("unreceived flag lost in round trip")
	}
	if back.Views[0].End == model.Infinity {
		t.Error("finite view end lost in round trip")
	}
}

// TestRunJSONKeepsAdmissibility: a traced run that breaks the model gets
// the same runs.Admissible verdict after a JSON round trip — Algorithm 1
// under a harsh clock drift (the views' drift rates and the last response
// carry the skew) and under message duplication (the copies' Dup marks).
func TestRunJSONKeepsAdmissibility(t *testing.T) {
	p := model.Params{N: 3, D: 10 * time.Millisecond, U: 4 * time.Millisecond}
	p.Epsilon = p.OptimalSkew()
	for _, name := range []string{"drift", "dup"} {
		fs, err := engine.FaultSpecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res := engine.New(1).Run([]engine.Scenario{{
			DataType: types.NewRMWRegister(0), Params: p, Seed: 1, Faults: fs, Trace: true,
		}}).Results[0]
		if res.Err != "" {
			t.Fatalf("%s: %s", name, res.Err)
		}
		before := runs.Admissible(*res.Run)
		if before == nil {
			t.Fatalf("%s: the traced run is admissible; the plan should break the model", name)
		}
		data, err := tracefmt.MarshalRun(*res.Run)
		if err != nil {
			t.Fatal(err)
		}
		back, err := tracefmt.UnmarshalRun(data)
		if err != nil {
			t.Fatal(err)
		}
		if after := runs.Admissible(back); after == nil || after.Error() != before.Error() {
			t.Errorf("%s: runs.Admissible says %q before a JSON round trip and %v after it", name, before, after)
		}
	}
}
