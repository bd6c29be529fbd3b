package main

import (
	"fmt"
	"io"
	"time"

	"timebounds/internal/adversary"
	"timebounds/internal/engine"
	"timebounds/internal/history"
	"timebounds/internal/model"
	"timebounds/internal/runs"
	"timebounds/internal/tracefmt"
	"timebounds/internal/types"
)

// runTrace runs a small scenario and renders it as a space-time diagram
// (the textual analogue of the paper's figures) or, with -json, as JSON
// for external tooling.
func runTrace(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("trace", stderr)
	var (
		scenario = fs.String("scenario", "quickstart", "scenario: quickstart|fig1|thmC1")
		width    = fs.Int("width", 100, "diagram width in columns")
		asJSON   = fs.Bool("json", false, "emit the run as JSON instead of a diagram")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	r, ops, caption, err := traceScenario(*scenario)
	if err != nil {
		return err
	}
	if *asJSON {
		data, err := tracefmt.MarshalRun(r)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(data))
		return nil
	}
	fmt.Fprintln(stdout, caption)
	fmt.Fprint(stdout, tracefmt.Diagram{Width: *width}.Render(r, ops))
	return nil
}

// traceScenario builds the named run at n=3, d=10ms, u=4ms, ε=(1-1/n)u and
// returns it with its operations and a caption.
func traceScenario(name string) (runs.Run, []history.Record, string, error) {
	p := model.Params{N: 3, D: 10 * time.Millisecond, U: 4 * time.Millisecond}
	p.Epsilon = p.OptimalSkew()
	switch name {
	case "quickstart":
		inst, err := engine.Scenario{
			Backend:      engine.Algorithm1{},
			DataType:     types.NewRegister(0),
			Params:       p,
			Delay:        engine.DelaySpec{Mode: engine.DelayWorst},
			ClockOffsets: make([]model.Time, p.N),
			Trace:        true,
		}.Build()
		if err != nil {
			return runs.Run{}, nil, "", err
		}
		inst.Invoke(0, 0, types.OpWrite, 7)
		inst.Invoke(p.Epsilon+1, 2, types.OpRead, nil)
		inst.Invoke(3*p.D, 1, types.OpRead, nil)
		if err := inst.Run(model.Infinity); err != nil {
			return runs.Run{}, nil, "", err
		}
		return runs.FromSim(inst.Simulator()), inst.History().Ops(),
			"Algorithm 1: write acks in ε+X; reads settle in d+ε-X (messages are the broadcast).", nil
	case "fig1":
		rep, err := adversary.Run(adversary.Figure1Spec(true), p)
		if err != nil {
			return runs.Run{}, nil, "", err
		}
		res := rep.Results[0]
		caption := fmt.Sprintf(
			"Figure 1(a): zero-latency register; read misses the completed write(1): linearizable=%v",
			res.Linearizable)
		return *res.Run, res.History.Ops(), caption, nil
	case "thmC1":
		// Render R3 of the Theorem C.1 family with a premature dequeue.
		rep, err := adversary.Run(adversary.C1SpecFor("c1", true,
			func(p model.Params) model.Time { return p.D }, adversary.ShiftFraction{}), p)
		if err != nil {
			return runs.Run{}, nil, "", err
		}
		last := rep.Results[len(rep.Results)-1]
		caption := fmt.Sprintf(
			"Theorem C.1 run R3, premature dequeues (latency d < d+m): linearizable=%v",
			last.Linearizable)
		return *last.Run, last.History.Ops(), caption, nil
	default:
		return runs.Run{}, nil, "", fmt.Errorf("unknown scenario %q", name)
	}
}
