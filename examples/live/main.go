// Live runtime: the same Scenario declaration the simulator runs, executed
// as a real wall-clock cluster — three replica goroutines exchanging
// timestamped messages over an in-process transport. The cluster discovers
// (u, d) with a windowed online estimator, retunes Algorithm 1's waits
// adaptively, records the history with real instants, and the engine
// verifies it with the same Wing–Gong checker post hoc. The report shows
// per-class measured latency against the bound computed from the
// *estimated* envelope — the paper's d+ε / ε+X / d+ε-X table, measured.
//
// The second run deliberately retunes below the estimated envelope
// (Runtime.Undertune) and must land on a horn of the premature-tuning
// dichotomy: a linearizability violation, replica divergence, or
// bound-level latency anyway — never a run that is correct AND fast.
package main

import (
	"fmt"
	"log"
	"time"

	"timebounds"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	params := timebounds.Params{
		N: 3,
		D: 4 * time.Millisecond, // chan transport: synthetic delays in [d-u, d]
		U: 3 * time.Millisecond,
	}

	// A safe live run: closed-loop racing read-modify-writes, tuning
	// derived from the online estimate.
	res, err := timebounds.RunScenario(timebounds.Scenario{
		Name:     "live-safe",
		Backend:  timebounds.Algorithm1(),
		DataType: timebounds.NewRMWRegister(0),
		Params:   params,
		Seed:     7,
		Workload: timebounds.Workload{OpsPerProcess: 6},
		Runtime:  timebounds.LiveRuntime(),
		Verify:   true,
	})
	if err != nil {
		return err
	}
	fmt.Println("safe live cluster:")
	fmt.Print(res.Live.Render())
	fmt.Printf("linearizable=%v converged=%v (post-hoc check of the wall-clock history)\n",
		res.Linearizable, res.Converged)

	// The premature-tuning dichotomy, live: scale every wait to 5% of the
	// estimated envelope and race RMWs from all processes.
	rt := timebounds.LiveRuntime()
	rt.Undertune = 0.05
	under, err := timebounds.RunScenario(timebounds.Scenario{
		Name:     "live-undertuned",
		Backend:  timebounds.Algorithm1(),
		DataType: timebounds.NewRMWRegister(0),
		Params:   params,
		Seed:     7,
		Workload: timebounds.RaceWorkload(params, 0, time.Millisecond, 10, timebounds.OpRMW),
		Runtime:  rt,
		Verify:   true,
	})
	// An under-tuned run's verdict is the dichotomy: RunScenario fails a
	// run that was correct and fast.
	if err != nil {
		return err
	}
	fmt.Println("\nunder-tuned live cluster (waits at 5% of the estimate):")
	fmt.Print(under.Live.Render())
	fmt.Printf("dichotomy horn: violation=%v diverged=%v boundLevelLatency=%v\n",
		!under.Linearizable, !under.Converged, under.Linearizable && under.Converged)
	fmt.Println("→ tuning below the discovered envelope cannot be both correct and fast")
	return nil
}
