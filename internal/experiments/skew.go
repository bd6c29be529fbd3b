package experiments

import (
	"context"
	"fmt"
	"strings"

	"timebounds/internal/engine"
	"timebounds/internal/keyspace"
	"timebounds/internal/model"
	"timebounds/internal/spec"
	"timebounds/internal/types"
	"timebounds/internal/workload"
)

// SkewSweepOptions configures the skew study: how the saturation knee of a
// sharded keyed store moves as the workload's Zipf exponent grows. Under a
// range partition a hotter head piles traffic onto one shard, so the
// store's effective capacity is the hottest shard's — the knee load falls
// as the exponent rises, which is exactly the planet-scale argument for
// live rebalancing (keyspace.SplitHot). Shards run at X = 0, and a point
// saturates when some shard's per-kind p99 sojourn reaches
// engine.KneeFactor × that class's service bound.
type SkewSweepOptions struct {
	// Backend is the implementation under load; nil means Algorithm 1.
	Backend engine.Backend
	// Params are the model timing parameters.
	Params model.Params
	// Seed drives workload generation and per-shard delay draws.
	Seed int64
	// Space is the key universe; a zero value means 100 000 keys.
	Space keyspace.Space
	// Shards is the range-partition size (default 8).
	Shards int
	// Exponents is the Zipf-exponent axis (each > 1); empty means
	// {1.01, 1.2, 1.5, 2.0}.
	Exponents []float64
	// Loads is the per-exponent offered-load axis in aggregate ops/sec,
	// ascending; empty spans 0.5×–8× the nominal aggregate service rate
	// n/(2d) over 5 points.
	Loads []float64
	// OpsPerPoint is the operations streamed per measured point
	// (default 300).
	OpsPerPoint int
	// OnPoint observes each measured point in completion order.
	OnPoint func(SkewCell)
}

// SkewCell is one measured (exponent, load) cell.
type SkewCell struct {
	// Exponent is the Zipf exponent; Load the aggregate offered ops/sec.
	Exponent float64
	Load     float64
	// Ops counts completed client operations; Imbalance and Hottest come
	// from the sharded report's skew stats.
	Ops       int
	Imbalance float64
	Hottest   int
	// WorstP99 is the largest per-shard per-kind p99 sojourn, Bound the
	// service bound of the class that came closest to (or past)
	// detachment.
	WorstP99 model.Time
	Bound    model.Time
	// Saturated reports WorstP99 ≥ K × Bound.
	Saturated bool
}

// SkewKnee is one exponent's located knee.
type SkewKnee struct {
	Exponent float64
	// Found reports whether the axis saturated; Load is the lowest
	// saturated load (0 when not Found) and Imbalance the skew measured
	// there.
	Found     bool
	Load      float64
	Imbalance float64
}

// SkewReport is the outcome of a skew sweep.
type SkewReport struct {
	// Points holds every measured cell, exponent-major then ascending
	// load.
	Points []SkewCell
	// Knees holds one entry per exponent, in axis order.
	Knees []SkewKnee
}

// SkewSweep measures the knee-load-vs-exponent surface. Every point is a
// full sharded engine run (streamed Zipf schedule, range partition), so
// the result is deterministic in (options, seed) at any worker count.
func SkewSweep(ctx context.Context, opt SkewSweepOptions) (SkewReport, error) {
	backend := opt.Backend
	if backend == nil {
		backend = engine.Algorithm1{}
	}
	space := opt.Space
	if space.N == 0 {
		space.N = 100_000
	}
	shards := opt.Shards
	if shards <= 0 {
		shards = 8
	}
	exponents := opt.Exponents
	if len(exponents) == 0 {
		exponents = []float64{1.01, 1.2, 1.5, 2.0}
	}
	loads := opt.Loads
	if len(loads) == 0 {
		nominal := float64(opt.Params.N) * 1e9 / float64(2*opt.Params.D)
		loads = []float64{nominal / 2, nominal, nominal * 2, nominal * 4, nominal * 8}
	}
	ops := opt.OpsPerPoint
	if ops <= 0 {
		ops = 300
	}
	for i := 1; i < len(loads); i++ {
		if loads[i] <= loads[i-1] {
			return SkewReport{}, fmt.Errorf("experiments: skew load axis not ascending at %g", loads[i])
		}
	}

	eng := engine.New(0)
	dict := types.NewDict()
	var rep SkewReport
	for _, s := range exponents {
		knee := SkewKnee{Exponent: s}
		for _, load := range loads {
			if err := ctx.Err(); err != nil {
				return rep, err
			}
			w := keyspace.Workload{
				Space:   space,
				Model:   keyspace.Zipf{S: s},
				Ops:     ops,
				Spacing: model.Time(1e9 / load),
			}
			sr, err := eng.RunSharded(engine.ShardedScenario{
				Backend:  backend,
				Params:   opt.Params,
				Seed:     opt.Seed,
				Workload: w.Sharded(shards),
				Plan:     &keyspace.Plan{Base: keyspace.RangePartition(space, shards)},
			})
			if err == nil {
				err = sr.Err() // a failing store is no measured point
			}
			if err != nil {
				return rep, fmt.Errorf("experiments: skew point s=%g at %.1f ops/s: %w", s, load, err)
			}
			pt := SkewCell{
				Exponent:  s,
				Load:      load,
				Ops:       sr.Ops,
				Imbalance: sr.Stats.Imbalance,
				Hottest:   hottestShard(sr.Stats.PerShardOps),
			}
			// Saturation is per shard: the hottest shard detaches first,
			// long before the store-wide aggregate does.
			for _, res := range sr.Shards {
				if res.History == nil {
					continue
				}
				online := make(map[spec.OpKind]*workload.OnlineStats)
				for _, op := range res.History.Ops() {
					if op.Pending {
						continue
					}
					os, ok := online[op.Kind]
					if !ok {
						os = workload.NewOnlineStats()
						online[op.Kind] = os
					}
					os.Observe(op.Sojourn())
				}
				for kind, os := range online {
					st := os.Stats(kind)
					bound := backend.Bound(opt.Params, 0, dict.Class(kind))
					if st.P99 > pt.WorstP99 {
						pt.WorstP99 = st.P99
						pt.Bound = bound
					}
					if float64(st.P99) >= engine.KneeFactor*float64(bound) {
						pt.Saturated = true
					}
				}
			}
			rep.Points = append(rep.Points, pt)
			if opt.OnPoint != nil {
				opt.OnPoint(pt)
			}
			if pt.Saturated && !knee.Found {
				knee.Found = true
				knee.Load = pt.Load
				knee.Imbalance = pt.Imbalance
			}
		}
		rep.Knees = append(rep.Knees, knee)
	}
	return rep, nil
}

func hottestShard(perShard []int) int {
	hottest := 0
	for i := range perShard {
		if perShard[i] > perShard[hottest] {
			hottest = i
		}
	}
	return hottest
}

// SkewSweepCSV renders the sweep as CSV: one row per measured
// (exponent, load) cell with the skew and detachment columns, a knee
// marker on each exponent's first saturated cell, and one knee summary row
// per exponent.
func SkewSweepCSV(rep SkewReport) string {
	var b strings.Builder
	b.WriteString("zipf_exponent,load_ops_per_sec,ops,imbalance,hottest_shard,worst_p99_ns,bound_ns,saturated,knee\n")
	marked := make(map[float64]bool)
	kneeAt := make(map[float64]float64)
	for _, k := range rep.Knees {
		if k.Found {
			kneeAt[k.Exponent] = k.Load
		}
	}
	for _, pt := range rep.Points {
		knee := ""
		if at, ok := kneeAt[pt.Exponent]; ok && !marked[pt.Exponent] && pt.Load == at {
			knee = "knee"
			marked[pt.Exponent] = true
		}
		fmt.Fprintf(&b, "%.3f,%.3f,%d,%.4f,%d,%d,%d,%v,%s\n",
			pt.Exponent, pt.Load, pt.Ops, pt.Imbalance, pt.Hottest,
			int64(pt.WorstP99), int64(pt.Bound), pt.Saturated, knee)
	}
	for _, k := range rep.Knees {
		load := ""
		if k.Found {
			load = fmt.Sprintf("%.3f", k.Load)
		}
		fmt.Fprintf(&b, "knee,%.3f,%s,%.4f\n", k.Exponent, load, k.Imbalance)
	}
	return b.String()
}
