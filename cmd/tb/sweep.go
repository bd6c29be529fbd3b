package main

import (
	"context"
	"fmt"
	"io"
	"strconv"

	"timebounds"
	"timebounds/internal/experiments"
	"timebounds/internal/model"
	"timebounds/internal/types"
)

// runSweep prints parameter-sweep series as TSV (CSV for load and skew):
//
//	-sweep x    the accessor/mutator tradeoff across X ∈ [0, d+ε-u]
//	            (experiment E13; §V.A.2's latency regulation knob)
//	-sweep n    mutator latency and (1-1/n)u across cluster sizes
//	            (experiment E14; Theorem D.1 tightness)
//	-sweep base Algorithm 1 vs folklore baselines (experiment E12)
//	-sweep gap  measured OOP latency between Theorem C.1's lower bound
//	            and Algorithm 1's d+ε upper bound across u (experiment
//	            E15; the witness column comes from the engine-run
//	            adversary grid)
//	-sweep load the saturation study: open-loop offered load swept across
//	            a geometric ramp (or -loads), each point streamed through
//	            the engine and folded online, with a bisection locating
//	            the saturation knee. Emits CSV: offered load, per-class
//	            p50/p99 sojourn, class bound, bound margin, utilization,
//	            and a knee marker. A progress line streams to stderr as
//	            points complete.
//	-sweep skew the skew study: a streamed Zipf workload over a
//	            range-partitioned key universe (-keys, -shards), swept
//	            across Zipf exponents (-exponents) × offered loads
//	            (-loads). Emits CSV: per-cell imbalance, hottest shard,
//	            worst per-shard p99 sojourn vs bound, saturation marker,
//	            and one knee row per exponent — how the saturation knee
//	            falls as the head of the popularity distribution grows.
func runSweep(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("sweep", stderr)
	var (
		sweep    = fs.String("sweep", "x", "sweep kind: x|n|base|gap|load|skew")
		maxN     = fs.Int("maxn", 10, "largest n (n sweep)")
		steps    = fs.Int("steps", 9, "sample count (x and gap sweeps; ramp points for load)")
		backendF = fs.String("backend", "algorithm1", "backend under load (load and skew sweeps)")
		loadsF   = fs.String("loads", "", "explicit comma-separated offered loads in ops/sec (load and skew sweeps; empty = auto)")
		keys     = fs.Int("keys", 100_000, "key universe size (skew sweep)")
		shards   = fs.Int("shards", 8, "range-partition size (skew sweep)")
		expsF    = fs.String("exponents", "", "explicit comma-separated Zipf exponents (skew sweep; empty = 1.01,1.2,1.5,2.0)")
		m        = addModelFlags(fs, "n d u seed ops", 4, 24)
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	p, err := m.params()
	if err != nil {
		return err
	}

	switch *sweep {
	case "x":
		pts, err := experiments.XSweep(p, *steps, m.seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "X\tmutator(ε+X)\taccessor(d+ε-X)\tpair(d+2ε)")
		for _, pt := range pts {
			fmt.Fprintf(stdout, "%s\t%s\t%s\t%s\n", pt.X, pt.Mutator, pt.Accessor, pt.Pair)
		}
	case "n":
		pts, err := experiments.NSweep(p.D, p.U, *maxN, m.seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "n\t(1-1/n)u\tmeasured-mutator")
		for _, pt := range pts {
			fmt.Fprintf(stdout, "%d\t%s\t%s\n", pt.N, pt.OptimalSkew, pt.MeasuredMutator)
		}
	case "base":
		cmp, err := experiments.CompareBaselines(p, 0, m.seed, 20)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "impl\twrite-max\tread-max\trmw-max")
		fmt.Fprintf(stdout, "algorithm1\t%s\t%s\t%s\n",
			cmp.Fast[types.OpWrite].Max, cmp.Fast[types.OpRead].Max, cmp.Fast[types.OpRMW].Max)
		fmt.Fprintf(stdout, "all-oop\t%s\t%s\t%s\n",
			cmp.AllOOP[types.OpWrite].Max, cmp.AllOOP[types.OpRead].Max, cmp.AllOOP[types.OpRMW].Max)
		fmt.Fprintf(stdout, "centralized\t%s\t%s\t%s\n",
			cmp.Centralized[types.OpWrite].Max, cmp.Centralized[types.OpRead].Max, cmp.Centralized[types.OpRMW].Max)
		fmt.Fprintf(stdout, "tob\t%s\t%s\t%s\n",
			cmp.TOB[types.OpWrite].Max, cmp.TOB[types.OpRead].Max, cmp.TOB[types.OpRMW].Max)
	case "gap":
		if *steps < 1 {
			return fmt.Errorf("gap sweep needs -steps ≥ 1, got %d", *steps)
		}
		var us []model.Time
		for i := 1; i <= *steps; i++ {
			us = append(us, model.Time(int64(p.U)*int64(i)/int64(*steps)))
		}
		pts, err := experiments.OOPGapSweep(p.N, p.D, us, m.seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "u\tε\tlower(d+m)\tmeasured\twitness\tupper(d+ε)\tgap")
		for _, pt := range pts {
			fmt.Fprintf(stdout, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
				pt.U, pt.Epsilon, pt.Lower, pt.Measured, pt.Witness, pt.Upper, pt.Gap())
		}
	case "load":
		backend, err := timebounds.BackendByName(*backendF)
		if err != nil {
			return err
		}
		loads, err := floats(*loadsF)
		if err != nil {
			return err
		}
		points := 0
		rep, err := experiments.LoadSweep(context.Background(), experiments.LoadSweepOptions{
			Backend: backend,
			Params:  p,
			Seed:    m.seed,
			Loads:   loads,
			// With only Points set, LoadSweep fills the span around the
			// nominal service rate n/(2d).
			Ramp:        timebounds.LoadRamp{Points: *steps},
			OpsPerPoint: m.ops,
			OnPoint: func(pt timebounds.StudyPoint) {
				points++
				fmt.Fprintf(stderr, "point %d: load %.1f ops/s util %.2f %s\n",
					points, pt.Load, pt.Utilization, saturation(pt.Saturated))
			},
		})
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, experiments.LoadSweepCSV(rep))
		if rep.Knee != nil {
			fmt.Fprintf(stderr, "knee: %s p99 %s ≥ 2×bound %s at ≈%.1f ops/s (bracket %.1f–%.1f)\n",
				rep.Knee.Class, rep.Knee.P99, rep.Knee.Bound, rep.Knee.Load, rep.Knee.Low, rep.Knee.Load)
		} else {
			fmt.Fprintln(stderr, "no saturation knee within the swept axis")
		}
	case "skew":
		backend, err := timebounds.BackendByName(*backendF)
		if err != nil {
			return err
		}
		loads, err := floats(*loadsF)
		if err != nil {
			return err
		}
		exponents, err := floats(*expsF)
		if err != nil {
			return err
		}
		cells := 0
		rep, err := experiments.SkewSweep(context.Background(), experiments.SkewSweepOptions{
			Backend:     backend,
			Params:      p,
			Seed:        m.seed,
			Space:       timebounds.Space{N: *keys},
			Shards:      *shards,
			Exponents:   exponents,
			Loads:       loads,
			OpsPerPoint: m.ops * p.N,
			OnPoint: func(pt experiments.SkewCell) {
				cells++
				fmt.Fprintf(stderr, "cell %d: s=%.2f load %.1f ops/s imbalance %.2f %s\n",
					cells, pt.Exponent, pt.Load, pt.Imbalance, saturation(pt.Saturated))
			},
		})
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, experiments.SkewSweepCSV(rep))
		for _, k := range rep.Knees {
			if k.Found {
				fmt.Fprintf(stderr, "s=%.2f: knee ≈%.1f ops/s (imbalance %.2f)\n", k.Exponent, k.Load, k.Imbalance)
			} else {
				fmt.Fprintf(stderr, "s=%.2f: no knee within the swept loads\n", k.Exponent)
			}
		}
	default:
		return fmt.Errorf("unknown sweep %q", *sweep)
	}
	return nil
}

// floats parses a comma-separated list of numbers; empty input means nil
// (the sweep's default axis).
func floats(csv string) ([]float64, error) {
	if csv == "" {
		return nil, nil
	}
	return list(csv, func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
}

// saturation names a study point's state on the progress lines.
func saturation(saturated bool) string {
	if saturated {
		return "SATURATED"
	}
	return "attached"
}
