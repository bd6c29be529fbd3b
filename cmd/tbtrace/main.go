// Command tbtrace runs a small scenario and renders it as a space-time
// diagram (the textual analogue of the paper's figures) and, optionally, as
// JSON for external tooling.
//
// Usage:
//
//	tbtrace [-scenario quickstart|fig1|thmC1] [-width 100] [-json]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"timebounds/internal/adversary"
	"timebounds/internal/engine"
	"timebounds/internal/history"
	"timebounds/internal/model"
	"timebounds/internal/runs"
	"timebounds/internal/tracefmt"
	"timebounds/internal/types"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tbtrace:", err)
		os.Exit(1)
	}
}

func params() model.Params {
	p := model.Params{N: 3, D: 10 * time.Millisecond, U: 4 * time.Millisecond}
	p.Epsilon = p.OptimalSkew()
	return p
}

func run() error {
	var (
		scenario = flag.String("scenario", "quickstart", "scenario: quickstart|fig1|thmC1")
		width    = flag.Int("width", 100, "diagram width in columns")
		asJSON   = flag.Bool("json", false, "emit the run as JSON instead of a diagram")
	)
	flag.Parse()

	r, ops, caption, err := buildScenario(*scenario)
	if err != nil {
		return err
	}
	if *asJSON {
		data, err := tracefmt.MarshalRun(r)
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}
	fmt.Println(caption)
	fmt.Print(tracefmt.Diagram{Width: *width, ShowMessages: true}.Render(r, ops))
	return nil
}

func buildScenario(name string) (runs.Run, []history.Record, string, error) {
	p := params()
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
		out, err := adversary.Figure1(p)
		if err != nil {
			return runs.Run{}, nil, "", err
		}
		caption := fmt.Sprintf(
			"Figure 1(a): zero-latency register; read misses the completed write(1): linearizable=%v",
			out.Linearizable())
		return out.Run, out.History.Ops(), caption, nil
	case "thmC1":
		// Render R3 of the Theorem C.1 family with a premature dequeue.
		outs, err := adversary.TheoremC1(adversary.C1Config{
			Params: p, OOPLatency: p.D, UseQueue: true,
		})
		if err != nil {
			return runs.Run{}, nil, "", err
		}
		last := outs[len(outs)-1]
		caption := fmt.Sprintf(
			"Theorem C.1 run R3, premature dequeues (latency d < d+m): linearizable=%v",
			last.Linearizable())
		return last.Run, last.History.Ops(), caption, nil
	default:
		return runs.Run{}, nil, "", fmt.Errorf("unknown scenario %q", name)
	}
}
