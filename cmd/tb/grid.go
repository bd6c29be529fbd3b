package main

import (
	"context"
	"fmt"
	"io"
	"iter"
	"strconv"
	"strings"
	"time"

	"timebounds"
)

// runGrid expands a scenario grid — backends × objects × cluster sizes ×
// tradeoff values × delay adversaries × seeds — and executes it in
// parallel on the engine, printing one report row per scenario: operation
// count, linearizability verdict, bound compliance, worst latency, and
// the tightest measured-vs-theoretical margin.
//
// With -adversary, the named lower-bound constructions are expanded
// alongside the regular cross product (premature and correct tunings
// both), and the witness table is appended to the report; tb adv is the
// dedicated sweep runner.
//
// With -faults, the grid gains a fault-plan axis: every scenario point is
// additionally run under each named fault family (crash, churn, loss,
// duplication, partition, drift), and the fault-dichotomy table is
// appended to the report — every faulted run must land on exactly one
// verdict horn, within the crash-adjusted bound or a breach naming the
// broken model assumption. The zero-fault cross product still runs
// alongside.
//
// With -shards, grid instead drives the engine's sharded path: a keyed
// workload over -keys keys is partitioned into -shards dictionary
// sub-clusters per backend × cluster size × -xs × -delays × seed, run
// across the worker pool, and folded into one sharded report per store
// (composed linearizability, aggregate bound margins, shard skew).
// -adversary does not combine with -shards.
//
// With -migrate (requires -shards ≥ 2), the keyed workload becomes a
// streamed Zipf schedule over -keys keys and each store runs twice: once
// under the static range partition to observe per-shard load, then — when
// the observed imbalance warrants it — again with the hot-split migration
// SplitHot plans from that load, cutting over mid-run. The second report
// carries the handoff table and the per-epoch composed verdict: the
// stitched cross-epoch check is what proves linearizability across the
// rebalancing, not just within each epoch.
func runGrid(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("grid", stderr)
	var (
		backendsF = fs.String("backends", "algorithm1,all-oop", "comma-separated backends")
		typesF    = fs.String("types", "register,queue", "comma-separated object types")
		nsF       = fs.String("ns", "4", "comma-separated cluster sizes")
		xsF       = fs.String("xs", "0", "comma-separated tradeoff values (durations)")
		delaysF   = fs.String("delays", "random", "comma-separated delay adversaries")
		seeds     = fs.Int("seeds", 2, "seeds per scenario point")
		workers   = fs.Int("workers", 0, "parallel workers (0 = all cores)")
		verify    = fs.Bool("verify", false, "run the linearizability checker on every history")
		advF      = fs.String("adversary", "", "comma-separated lower-bound constructions to run alongside the grid")
		faultsF   = fs.String("faults", "", "fault-plan axis: all, or a comma-separated subset of "+strings.Join(timebounds.FaultSpecNames(), ","))
		shards    = fs.Int("shards", 0, "run the sharded keyed-workload path with this many shards (0 = off, -1 = one shard per key)")
		keys      = fs.Int("keys", 24, "key-space size for -shards")
		migrate   = fs.Bool("migrate", false, "with -shards: observe skew under a Zipf stream, plan a hot-split migration from the measured load, re-run across the cutover")
		m         = addModelFlags(fs, "d u ops", 0, 4)
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	switch {
	case *shards != 0 && *advF != "":
		return fmt.Errorf("-adversary cannot be combined with -shards (adversary run families are unsharded)")
	case *shards != 0 && *faultsF != "":
		return fmt.Errorf("-faults cannot be combined with -shards (the fault axis applies to the unsharded grid)")
	case *migrate && *shards == 0:
		return fmt.Errorf("-migrate requires -shards (it drives the sharded keyed-workload path)")
	case *migrate && *shards < 2:
		return fmt.Errorf("-migrate needs -shards ≥ 2 (rebalancing moves keys between shards)")
	}

	var ax axes
	var err error
	if ax.backends, err = list(*backendsF, timebounds.BackendByName); err != nil {
		return err
	}
	if ax.params, err = list(*nsF, func(s string) (timebounds.Params, error) {
		n, err := strconv.Atoi(s)
		if err != nil {
			return timebounds.Params{}, fmt.Errorf("bad n %q", s)
		}
		return timebounds.Params{N: n, D: m.d, U: m.u}, nil
	}); err != nil {
		return err
	}
	if ax.xs, err = list(*xsF, time.ParseDuration); err != nil {
		return err
	}
	if ax.delays, err = list(*delaysF, func(s string) (timebounds.DelaySpec, error) {
		mode, err := timebounds.DelayModeByName(s)
		return timebounds.DelaySpec{Mode: mode}, err
	}); err != nil {
		return err
	}
	for s := int64(1); s <= int64(*seeds); s++ {
		ax.seeds = append(ax.seeds, s)
	}
	eng := timebounds.NewEngine(*workers)
	switch {
	case *migrate:
		return runMigrating(stdout, eng, ax, *shards, *keys, m.ops, *verify)
	case *shards != 0:
		return runSharded(stdout, eng, ax, *shards, *keys, m.ops, *verify)
	}

	grid := timebounds.Grid{
		Backends:  ax.backends,
		Params:    ax.params,
		Xs:        ax.xs,
		Delays:    ax.delays,
		Seeds:     ax.seeds,
		Workloads: []timebounds.Workload{{OpsPerProcess: m.ops}},
		Verify:    *verify,
	}
	if grid.Objects, err = list(*typesF, timebounds.DataTypeByName); err != nil {
		return err
	}
	if *faultsF != "" {
		names := *faultsF
		if names == "all" {
			names = strings.Join(timebounds.FaultSpecNames(), ",")
		}
		faults, err := list(names, timebounds.FaultSpecByName)
		if err != nil {
			return err
		}
		// Keep the zero-fault point so the fault axis extends the grid
		// rather than replacing it.
		grid.Faults = append([]timebounds.FaultSpec{{}}, faults...)
	}
	if *advF != "" {
		pairs, err := list(*advF, func(name string) ([]timebounds.AdversarySpec, error) {
			premature, err := timebounds.AdversaryByName(name, false)
			if err != nil {
				return nil, err
			}
			correct, err := timebounds.AdversaryByName(name, true)
			return []timebounds.AdversarySpec{premature, correct}, err
		})
		if err != nil {
			return err
		}
		for _, pair := range pairs {
			grid.Adversaries = append(grid.Adversaries, pair...)
		}
	}

	scenarios := grid.Scenarios()
	rep := streamWithProgress(stderr, eng, scenarios)
	fmt.Fprint(stdout, rep)
	if wt := rep.RenderWitnesses(); wt != "" {
		fmt.Fprintln(stdout, "\nlower-bound witnesses:")
		fmt.Fprint(stdout, wt)
	}
	if ft := rep.RenderFaults(); ft != "" {
		fmt.Fprintln(stdout, "\nfault dichotomy:")
		fmt.Fprint(stdout, ft)
	}
	fmt.Fprintf(stdout, "\n%d scenarios, %d operations\n", len(scenarios), rep.Ops())
	if err := rep.Err(); err != nil {
		return err
	}
	if *faultsF != "" {
		fmt.Fprintln(stdout, "all fault-free scenarios within bounds; every faulted run on exactly one dichotomy horn")
		return nil
	}
	fmt.Fprintln(stdout, "all scenarios within bounds, converged"+map[bool]string{true: ", linearizable", false: ""}[*verify])
	return nil
}

// axes are the grid axes the unsharded and sharded paths share.
type axes struct {
	backends []timebounds.Backend
	params   []timebounds.Params
	xs       []time.Duration
	delays   []timebounds.DelaySpec
	seeds    []int64
}

// points walks backend × cluster size × tradeoff × delay adversary × seed,
// yielding each point as a sharded scenario with only those fields set.
func (a axes) points() iter.Seq[timebounds.ShardedScenario] {
	return func(yield func(timebounds.ShardedScenario) bool) {
		for _, b := range a.backends {
			for _, p := range a.params {
				for _, x := range a.xs {
					for _, delay := range a.delays {
						for _, seed := range a.seeds {
							if !yield(timebounds.ShardedScenario{Backend: b, Params: p, X: x, Delay: delay, Seed: seed}) {
								return
							}
						}
					}
				}
			}
		}
	}
}

// streamWithProgress collects the scenarios through the engine's result
// stream, ticking a progress line on stderr as runs complete. The
// collected Report is bit-identical to Engine.Run's.
func streamWithProgress(stderr io.Writer, eng *timebounds.Engine, scenarios []timebounds.Scenario) timebounds.Report {
	results := make([]timebounds.Result, len(scenarios))
	done := 0
	for i, res := range eng.Stream(context.Background(), scenarios) {
		results[i] = res
		done++
		fmt.Fprintf(stderr, "\r%d/%d scenarios", done, len(scenarios))
	}
	fmt.Fprintln(stderr)
	return timebounds.Report{Results: results}
}

// runSharded drives the engine's sharded path: one sharded scenario per
// grid point, each partitioning a generated key space into dictionary
// sub-clusters.
func runSharded(stdout io.Writer, eng *timebounds.Engine, ax axes, shards, keys, ops int, verify bool) error {
	if shards < 0 {
		shards = 0 // engine convention: 0 = one shard per key
	}
	space := keyNames(keys)
	for ss := range ax.points() {
		ss.Workload = timebounds.ShardedWorkload{
			Name:   fmt.Sprintf("sharded/x=%s/%s", ss.X, ss.Delay.Mode),
			Keys:   space,
			Shards: shards,
			PerKey: timebounds.Workload{OpsPerProcess: ops},
		}
		ss.Verify = verify
		if _, err := printSharded(stdout, eng, ss); err != nil {
			return err
		}
	}
	fmt.Fprintln(stdout, "all sharded stores within bounds, converged"+map[bool]string{true: ", composed linearizable", false: ""}[verify])
	return nil
}

// runMigrating is the -migrate path: per grid point it streams a Zipf
// keyed workload over a static range partition, asks SplitHot for a
// rebalancing migration from the observed per-shard load, and — when the
// skew warrants one — re-runs the identical workload with the migration
// cutting over mid-schedule, printing the handoff table and the composed
// cross-epoch verdict.
func runMigrating(stdout io.Writer, eng *timebounds.Engine, ax axes, shards, keys, ops int, verify bool) error {
	space := timebounds.Space{N: keys}
	base := timebounds.RangePartition(space, shards)
	migrated := 0
	for ss := range ax.points() {
		d, n := ss.Params.D, ss.Params.N
		total := ops * n * shards
		w := timebounds.KeyedWorkload{
			Name:  fmt.Sprintf("migrating/x=%s/%s", ss.X, ss.Delay.Mode),
			Space: space,
			Model: timebounds.Zipf{},
			Ops:   total,
		}
		ss.Workload = w.Sharded(shards)
		ss.Plan = &timebounds.MigrationPlan{Base: base}
		ss.Verify = verify
		rep, err := printSharded(stdout, eng, ss)
		if err != nil {
			return err
		}
		// Cut over mid-schedule: the stream starts at d and spaces ops
		// 2d/n apart, so half the schedule sits on each side of the
		// handoff.
		cutover := d + time.Duration(total/2)*(2*d/time.Duration(n))
		mig := timebounds.SplitHot(base, rep.Stats.PerShardOps, rep.HotKeys, cutover, 1.5)
		if mig == nil {
			fmt.Fprintln(stdout, "observed load within threshold; no migration planned")
			continue
		}
		ss.Plan = &timebounds.MigrationPlan{Base: base, Migrations: []timebounds.Migration{*mig}}
		if _, err := printSharded(stdout, eng, ss); err != nil {
			return err
		}
		migrated++
	}
	fmt.Fprintf(stdout, "%d stores rebalanced mid-run; every handoff verified across the cutover%s\n",
		migrated, map[bool]string{true: " (composed check over per-epoch and stitched whole-key histories)", false: ""}[verify])
	return nil
}

// printSharded runs one sharded scenario and prints its report.
func printSharded(stdout io.Writer, eng *timebounds.Engine, ss timebounds.ShardedScenario) (timebounds.ShardedReport, error) {
	rep, err := eng.RunSharded(ss)
	if err != nil {
		return rep, err
	}
	fmt.Fprint(stdout, rep)
	fmt.Fprintln(stdout)
	return rep, rep.Err()
}

// keyNames returns the key space key-000, key-001, … of n keys.
func keyNames(n int) []string {
	space := make([]string, n)
	for i := range space {
		space[i] = fmt.Sprintf("key-%03d", i)
	}
	return space
}
