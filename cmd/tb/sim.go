package main

import (
	"fmt"
	"io"

	"timebounds"
)

// runSim runs one simulated workload scenario — any backend, any bundled
// object — and prints the history, per-kind latency statistics, the
// per-class measured-vs-bound margins, the converged state, and — for
// small workloads — the linearizability verdict.
func runSim(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("sim", stderr)
	var (
		typ     = fs.String("type", "queue", "object type: register|queue|stack|tree|set|counter|dict|pqueue|account")
		backend = fs.String("backend", "algorithm1", "backend: algorithm1|all-oop|centralized|tob")
		delay   = fs.String("delay", "random", "delay adversary: random|worst|best|extremal")
		verify  = fs.Bool("verify", false, "run the linearizability checker (small workloads only)")
		m       = addModelFlags(fs, "n d u eps x seed ops", 4, 5)
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	p, err := m.params()
	if err != nil {
		return err
	}
	dt, err := timebounds.DataTypeByName(*typ)
	if err != nil {
		return err
	}
	be, err := timebounds.BackendByName(*backend)
	if err != nil {
		return err
	}
	dm, err := timebounds.DelayModeByName(*delay)
	if err != nil {
		return err
	}
	res := timebounds.RunScenarios([]timebounds.Scenario{{
		Backend:  be,
		DataType: dt,
		Params:   p,
		X:        m.x,
		Seed:     m.seed,
		Delay:    timebounds.DelaySpec{Mode: dm},
		Workload: timebounds.Workload{OpsPerProcess: m.ops},
		Verify:   *verify,
	}}).Results[0]
	if res.Err != "" {
		return fmt.Errorf("%s", res.Err)
	}

	fmt.Fprintf(stdout, "scenario=%s object=%s backend=%s n=%d d=%s u=%s ε=%s X=%s ops=%d\n\n",
		res.Name, res.Object, res.Backend, res.Params.N, res.Params.D, res.Params.U,
		res.Params.Epsilon, res.X, res.Ops)
	fmt.Fprintln(stdout, "history:")
	fmt.Fprintln(stdout, res.History)
	fmt.Fprintln(stdout, "\nlatency (per kind):")
	fmt.Fprint(stdout, timebounds.RenderKinds(res))
	fmt.Fprintln(stdout, "\nbounds (per class):")
	for _, b := range res.Bounds {
		verdict := "ok"
		if !b.OK {
			verdict = "EXCEEDED"
		}
		fmt.Fprintf(stdout, "  %-4s  measured=%-10s bound=%-10s margin=%-10s %s\n",
			b.Class, b.Measured, b.Bound, b.Margin(), verdict)
	}
	if res.Converged {
		fmt.Fprintf(stdout, "\nconverged state: %s\n", res.State)
	} else {
		fmt.Fprintf(stdout, "\nreplica states: %s\n", res.Diverged)
	}
	if res.Checked {
		fmt.Fprintf(stdout, "linearizable: %v\n", res.Linearizable)
	}
	if !res.Converged {
		return fmt.Errorf("replicas diverged")
	}
	return nil
}
