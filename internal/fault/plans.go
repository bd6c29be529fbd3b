package fault

import "timebounds/internal/model"

// Canonical parameter-generic plans, one per fault family. Windows are
// placed over [d, ~16d] — where the default workload's invocations land —
// so the same builders serve engine grids, the tb grid/adv flags, and the
// conformance battery. All builders are pure functions of p.

// CrashRecover crashes the last replica at 3d and recovers it at 9d: a
// quiet mid-run outage with a resynchronization on the way back.
func CrashRecover(p model.Params) *Plan {
	victim := model.ProcessID(p.N - 1)
	return &Plan{
		Name:    "crash-recover",
		Crashes: []Crash{{Proc: victim, At: 3 * p.D, RecoverAt: 9 * p.D}},
	}
}

// CrashForever crashes the last replica at 3d with no recovery: every
// operation it had in flight stays pending forever.
func CrashForever(p model.Params) *Plan {
	victim := model.ProcessID(p.N - 1)
	return &Plan{
		Name:    "crash",
		Crashes: []Crash{{Proc: victim, At: 3 * p.D}},
	}
}

// Churn retires the last replica at 5d: permanent membership change.
func Churn(p model.Params) *Plan {
	victim := model.ProcessID(p.N - 1)
	return &Plan{
		Name:    "churn",
		Retires: []Retire{{Proc: victim, At: 5 * p.D}},
	}
}

// Lossy drops every message process 0 sends during [2d, 8d): its broadcasts
// silently vanish, so peers never learn of its operations.
func Lossy(p model.Params) *Plan {
	return &Plan{
		Name:   "loss",
		Losses: []Loss{{From: 0, To: -1, Start: 2 * p.D, End: 8 * p.D, Every: 1}},
	}
}

// Duplicating delivers every message process 0 sends during [2d, 8d) twice,
// the copy one unit later.
func Duplicating(p model.Params) *Plan {
	return &Plan{
		Name: "dup",
		Dups: []Duplicate{{From: 0, To: -1, Start: 2 * p.D, End: 8 * p.D, Copies: 2, Spacing: 1}},
	}
}

// Partitioned isolates process 0 from the rest during [3d, 7d): messages
// crossing the split are dropped in both directions.
func Partitioned(p model.Params) *Plan {
	return &Plan{
		Name:       "partition",
		Partitions: []Partition{{Start: 3 * p.D, End: 7 * p.D, Group: []model.ProcessID{0}}},
	}
}

// DriftMild slows every clock by the same 400 ppm: pairwise skew stays
// within ε (common-mode drift cancels), waits stretch slightly in real
// time, and the crash-adjusted bounds absorb the stretch — the
// within-bound horn of the dichotomy, under a real injected fault.
func DriftMild(p model.Params) *Plan {
	drifts := make([]Drift, p.N)
	for i := range drifts {
		drifts[i] = Drift{Proc: model.ProcessID(i), PPM: -400}
	}
	return &Plan{Name: "drift-mild", Drifts: drifts}
}

// DriftHarsh drifts process 0 slow and the last process fast by 20000 ppm
// (2%) each: their relative skew grows by 4% of real time and leaves the
// ε-window within a few d — the broken-assumption horn.
func DriftHarsh(p model.Params) *Plan {
	return &Plan{
		Name: "drift",
		Drifts: []Drift{
			{Proc: 0, PPM: -20_000},
			{Proc: model.ProcessID(p.N - 1), PPM: 20_000},
		},
	}
}
