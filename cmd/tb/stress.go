package main

import (
	"fmt"
	"io"
	"reflect"
	"time"

	"timebounds/internal/engine"
	"timebounds/internal/model"
	"timebounds/internal/spec"
	"timebounds/internal/types"
	"timebounds/internal/workload"
)

// runStress runs the systematic correctness harnesses:
//
//	-mode exhaustive  enumerate the full adversary lattice of a small RMW
//	                  scenario (all delay/offset combinations) and check
//	                  every world
//	-mode campaign    randomized sweep across objects × delay policies ×
//	                  seeds, verifying latency bounds, convergence and
//	                  linearizability
//	-mode sharded     sharded keyed-workload sweep: shard counts × seeds,
//	                  verifying composed linearizability, convergence,
//	                  aggregate bounds, and worker-count determinism of
//	                  the merged report
//	-mode live        wall-clock goroutine clusters over the in-process
//	                  chan transport (and loopback TCP with -live-tcp):
//	                  safe runs must linearize post hoc, converge, and
//	                  answer under the estimated bounds; a deliberately
//	                  under-tuned run must land on a horn of the
//	                  premature-tuning dichotomy
//
// It fails if any world or run fails — suitable for CI.
func runStress(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("stress", stderr)
	var (
		mode    = fs.String("mode", "campaign", "exhaustive|campaign|sharded|live")
		seeds   = fs.Int("seeds", 5, "seeds per object × policy (campaign) / per shard count (sharded) / per object (live)")
		msgs    = fs.Int("msgs", 6, "independent delay slots (exhaustive)")
		keys    = fs.Int("keys", 12, "key-space size (sharded)")
		liveTCP = fs.Bool("live-tcp", false, "include a loopback-TCP cluster in the live sweep")
		m       = addModelFlags(fs, "n d u ops", 3, 4)
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	p, err := m.params()
	if err != nil {
		return err
	}
	switch *mode {
	case "exhaustive":
		return exhaustive(stdout, p, *msgs)
	case "campaign":
		return campaign(stdout, p, *seeds, m.ops)
	case "sharded":
		return shardedSweep(stdout, p, *keys, *seeds, m.ops)
	case "live":
		return liveSweep(stdout, p, *seeds, m.ops, *liveTCP)
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
}

// exhaustive runs two racing RMWs and a late read in every world of the
// adversary lattice; every world must be OK (linearizable, convergent,
// within the class bounds).
func exhaustive(stdout io.Writer, p model.Params, msgs int) error {
	worlds, err := engine.Lattice{MaxMessages: msgs}.Worlds(engine.Scenario{
		DataType: types.NewRMWRegister(0),
		Params:   p,
		Workload: workload.Spec{Explicit: []workload.Invocation{
			{At: 2 * p.D, Proc: 0, Kind: types.OpRMW, Arg: 1},
			{At: 2*p.D + p.Epsilon - 1, Proc: 1, Kind: types.OpRMW, Arg: 2},
			{At: 8 * p.D, Proc: 2, Kind: types.OpRead},
		}},
		Verify: true,
	})
	if err != nil {
		return err
	}
	rep := engine.New(0).Run(worlds)
	var bad []engine.Result
	for _, r := range rep.Results {
		if !r.OK() {
			bad = append(bad, r)
		}
	}
	fmt.Fprintf(stdout, "explored %d adversary worlds: %d violations\n", len(rep.Results), len(bad))
	if len(bad) > 0 {
		if h := bad[0].History; h != nil {
			fmt.Fprintf(stdout, "first violation: %s\n%s\n", bad[0].Name, h)
		}
		return fmt.Errorf("%d violations: %w", len(bad), rep.Err())
	}
	return nil
}

// campaign is the randomized sweep: every bundled object × delay adversary
// × seed as one engine grid. Every run must complete, linearize, converge
// and respect the class latency bounds.
func campaign(stdout io.Writer, p model.Params, seeds, ops int) error {
	seedList := make([]int64, seeds)
	for i := range seedList {
		seedList[i] = int64(i + 1)
	}
	rep := engine.New(0).Run(engine.Grid{
		Objects: []spec.DataType{
			types.NewRMWRegister(0),
			types.NewQueue(),
			types.NewStack(),
			types.NewTree(),
			types.NewSet(),
			types.NewCounter(),
			types.NewDict(),
			types.NewPQueue(),
			types.NewAccount(),
		},
		Params: []model.Params{p},
		Seeds:  seedList,
		Delays: []engine.DelaySpec{
			{Mode: engine.DelayRandom},
			{Mode: engine.DelayWorst},
			{Mode: engine.DelayBest},
			{Mode: engine.DelayExtremal},
		},
		Workloads: []workload.Spec{{OpsPerProcess: ops, Spacing: 2 * p.D, Start: p.D}},
		Verify:    true,
	}.Scenarios())
	var worst model.Time
	for _, r := range rep.Results {
		worst = max(worst, r.WorstLatency())
	}
	fmt.Fprintf(stdout, "campaign: %d runs, %d operations, worst latency %s\n",
		len(rep.Results), rep.Ops(), worst)
	if err := rep.Err(); err != nil {
		for _, r := range rep.Results {
			if !r.OK() {
				fmt.Fprintln(stdout, "  FAIL:", r.Name)
			}
		}
		return err
	}
	fmt.Fprintln(stdout, "all runs linearizable, convergent and within the class bounds")
	return nil
}

// shardedSweep stresses the engine's sharded path: every shard count from
// the coarsest (1) to the finest (one per key) across several seeds, each
// verified for composed linearizability, convergence, and aggregate
// bounds — and each merged report re-run single-threaded to pin the
// worker-count determinism the engine promises.
func shardedSweep(stdout io.Writer, p model.Params, keys, seeds, ops int) error {
	space := keyNames(keys)
	var counts []int
	for _, c := range []int{1, 2, keys / 2, keys} { // coarsest → finest (one per key)
		if c >= 1 && (len(counts) == 0 || c > counts[len(counts)-1]) {
			counts = append(counts, c)
		}
	}
	runs, opsTotal := 0, 0
	for _, shards := range counts {
		for seed := int64(1); seed <= int64(seeds); seed++ {
			ss := engine.ShardedScenario{
				Params: p,
				Seed:   seed,
				Workload: workload.Sharded{
					Keys:   space,
					Shards: shards,
					PerKey: workload.Spec{OpsPerProcess: ops},
				},
				Verify: true,
			}
			rep, err := engine.RunSharded(ss)
			if err != nil {
				return err
			}
			if err := rep.Err(); err != nil {
				return fmt.Errorf("shards=%d seed=%d: %w", shards, seed, err)
			}
			serial, err := engine.New(1).RunSharded(ss)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(rep, serial) {
				return fmt.Errorf("shards=%d seed=%d: merged report differs between parallel and single-worker runs", shards, seed)
			}
			runs++
			opsTotal += rep.Ops
		}
	}
	fmt.Fprintf(stdout, "sharded sweep: %d stores (%d keys, shard counts %v), %d operations\n",
		runs, keys, counts, opsTotal)
	fmt.Fprintln(stdout, "all stores composed-linearizable, convergent, within bounds, and worker-count deterministic")
	return nil
}

// liveSweep stresses the live runtime: safe wall-clock clusters per object
// × seed over the chan transport (the delay adversary realized as
// synthetic message delays), optionally one over loopback TCP, and one
// deliberately under-tuned run that must land on a horn of the
// premature-tuning dichotomy.
func liveSweep(stdout io.Writer, p model.Params, seeds, ops int, tcp bool) error {
	objects := []spec.DataType{
		types.NewRMWRegister(0),
		types.NewQueue(),
		types.NewCounter(),
	}
	eng := engine.New(0)
	runs, opsTotal := 0, 0
	for _, dt := range objects {
		for seed := int64(1); seed <= int64(seeds); seed++ {
			res, err := eng.RunOne(engine.Scenario{
				Backend:  engine.Algorithm1{},
				DataType: dt,
				Params:   p,
				Seed:     seed,
				Workload: workload.Spec{OpsPerProcess: ops},
				Runtime:  engine.LiveRuntime(),
				Verify:   true,
			})
			// RunOne's error is the run's verdict: it completed, converged,
			// linearized and stayed within every class bound.
			if err != nil {
				return fmt.Errorf("live %s seed=%d: %w", dt.Name(), seed, err)
			}
			runs++
			opsTotal += res.Ops
		}
	}
	if tcp {
		res, err := eng.RunOne(engine.Scenario{
			Backend:  engine.Algorithm1{},
			DataType: types.NewRMWRegister(0),
			Params:   p,
			Seed:     1,
			Workload: workload.Spec{OpsPerProcess: ops},
			Runtime:  engine.LiveTCPRuntime(),
			Verify:   true,
		})
		if err != nil {
			return fmt.Errorf("live tcp: %w", err)
		}
		fmt.Fprintln(stdout, "tcp cluster:")
		fmt.Fprint(stdout, res.Live.Render())
		runs++
		opsTotal += res.Ops
	}
	// The dichotomy run: waits scaled to 3% of the estimated envelope must
	// break something or still pay bound-level latency.
	rt := engine.LiveRuntime()
	rt.Undertune = 0.03
	res, err := eng.RunOne(engine.Scenario{
		Backend:  engine.Algorithm1{},
		DataType: types.NewRMWRegister(0),
		Params:   p,
		Seed:     1,
		Workload: workload.Race(p, 0, time.Millisecond, 10, types.OpRMW),
		Runtime:  rt,
		Verify:   true,
	})
	// An under-tuned run's verdict is the dichotomy itself.
	if err != nil {
		return fmt.Errorf("live undertuned: %w", err)
	}
	runs++
	opsTotal += res.Ops
	fmt.Fprintf(stdout, "live sweep: %d clusters, %d operations\n", runs, opsTotal)
	fmt.Fprintf(stdout, "undertuned dichotomy horn: violation=%v diverged=%v\n",
		!res.Linearizable, !res.Converged)
	fmt.Fprintln(stdout, "all safe live runs linearizable, convergent, and within the estimated bounds")
	return nil
}
