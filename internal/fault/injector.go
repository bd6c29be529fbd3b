package fault

import (
	"fmt"

	"timebounds/internal/model"
)

// Stats accounts for what a plan's faults actually did in one run. All
// quantities are deterministic functions of the run, so Results carrying
// them stay bit-identical across worker counts.
type Stats struct {
	// Crashes, Recoveries, and Retirements count lifecycle events that
	// fired.
	Crashes, Recoveries, Retirements int
	// Lost counts messages dropped by loss rules; PartitionDrops counts
	// messages dropped for crossing an active partition.
	Lost, PartitionDrops int
	// Duplicates counts extra deliveries injected by duplication rules.
	Duplicates int
	// DroppedToDown counts messages that arrived at a down process.
	DroppedToDown int
	// TimersDropped counts timers invalidated by a crash or retirement.
	TimersDropped int
	// PendingAtCrash counts in-flight operations whose process died between
	// invoke and respond (their records stay pending forever).
	PendingAtCrash int
	// StrandedInvokes counts invocations the application layer could never
	// issue because the process was down (or died with them still queued
	// behind an in-flight operation). They never become history records.
	StrandedInvokes int
	// Downtime is the accumulated down span per process (open spans closed
	// at the observation instant).
	Downtime []model.Time
}

// Total reports whether any fault materialized at all.
func (s Stats) Total() int {
	return s.Crashes + s.Retirements + s.Lost + s.PartitionDrops + s.Duplicates +
		s.DroppedToDown + s.TimersDropped + s.PendingAtCrash + s.StrandedInvokes
}

// Injector is the per-run fault runtime: it owns the mutable counters and
// availability state one simulator consults, so a fresh Injector must be
// built per run (never shared across parallel runs). All decisions are
// deterministic functions of (plan, call sequence).
type Injector struct {
	plan *Plan
	n    int

	down      []bool
	retired   []bool
	downSince []model.Time
	downAccum []model.Time

	lossSeen []int    // per-loss-rule match counter (drives Every)
	inGroup  [][]bool // per-partition membership masks

	stats Stats
}

// NewInjector validates the plan against a cluster of n processes and
// builds its per-run runtime. A nil or inactive plan yields a nil injector
// (the simulator's fault-free fast path).
func NewInjector(plan *Plan, n int) (*Injector, error) {
	if !plan.Active() {
		return nil, nil
	}
	if err := plan.Validate(n); err != nil {
		return nil, err
	}
	in := &Injector{
		plan:      plan,
		n:         n,
		down:      make([]bool, n),
		retired:   make([]bool, n),
		downSince: make([]model.Time, n),
		downAccum: make([]model.Time, n),
		lossSeen:  make([]int, len(plan.Losses)),
	}
	if len(plan.Partitions) > 0 {
		in.inGroup = make([][]bool, len(plan.Partitions))
		for i, pt := range plan.Partitions {
			mask := make([]bool, n)
			for _, pid := range pt.Group {
				mask[pid] = true
			}
			in.inGroup[i] = mask
		}
	}
	return in, nil
}

// Plan returns the schedule the injector executes.
func (in *Injector) Plan() *Plan { return in.plan }

// N returns the cluster size the injector was validated against.
func (in *Injector) N() int { return in.n }

// Rates returns the per-process clock drift rates, nil when no process
// drifts.
func (in *Injector) Rates() []int64 { return in.plan.Rates(in.n) }

// Unavailable reports whether process p is currently down or retired.
func (in *Injector) Unavailable(p model.ProcessID) bool {
	return in.down[p] || in.retired[p]
}

// MarkDown records the crash of p at the given real time.
func (in *Injector) MarkDown(p model.ProcessID, at model.Time) {
	if in.down[p] || in.retired[p] {
		return
	}
	in.down[p] = true
	in.downSince[p] = at
	in.stats.Crashes++
}

// MarkUp records the recovery of p at the given real time.
func (in *Injector) MarkUp(p model.ProcessID, at model.Time) {
	if !in.down[p] || in.retired[p] {
		return
	}
	in.down[p] = false
	in.downAccum[p] += at - in.downSince[p]
	in.stats.Recoveries++
}

// MarkRetired records the permanent departure of p at the given real time.
func (in *Injector) MarkRetired(p model.ProcessID, at model.Time) {
	if in.retired[p] {
		return
	}
	if in.down[p] {
		in.down[p] = false
		in.downAccum[p] += at - in.downSince[p]
	}
	in.retired[p] = true
	in.downSince[p] = at
	in.stats.Retirements++
}

// Retired reports whether p has retired.
func (in *Injector) Retired(p model.ProcessID) bool { return in.retired[p] }

// Deliveries decides the fate of one message sent from→to at the given real
// time: 0 copies (dropped by a partition or loss rule), 1 (normal), or k ≥ 2
// with the spacing between consecutive copies (a duplication rule matched).
// It must be called exactly once per sent message, in send order — the
// per-rule Every counters depend on it.
func (in *Injector) Deliveries(from, to model.ProcessID, sentAt model.Time) (int, model.Time) {
	for i := range in.inGroup {
		pt := &in.plan.Partitions[i]
		if sentAt >= pt.Start && sentAt < pt.End && in.inGroup[i][from] != in.inGroup[i][to] {
			in.stats.PartitionDrops++
			return 0, 0
		}
	}
	for i := range in.plan.Losses {
		l := &in.plan.Losses[i]
		if !linkMatch(l.From, l.To, from, to) || sentAt < l.Start || sentAt >= l.End {
			continue
		}
		k := in.lossSeen[i]
		in.lossSeen[i]++
		every := l.Every
		if every <= 0 {
			every = 1
		}
		if k%every == 0 {
			in.stats.Lost++
			return 0, 0
		}
	}
	for i := range in.plan.Dups {
		d := &in.plan.Dups[i]
		if !linkMatch(d.From, d.To, from, to) || sentAt < d.Start || sentAt >= d.End {
			continue
		}
		copies := d.Copies
		if copies < 2 {
			copies = 2
		}
		spacing := d.Spacing
		if spacing <= 0 {
			spacing = 1
		}
		in.stats.Duplicates += copies - 1
		return copies, spacing
	}
	return 1, 0
}

// linkMatch reports whether a (from, to) rule pattern (-1 = any) matches a
// concrete link.
func linkMatch(ruleFrom, ruleTo int, from, to model.ProcessID) bool {
	return (ruleFrom < 0 || ruleFrom == int(from)) && (ruleTo < 0 || ruleTo == int(to))
}

// Undelivered reports the messages the injector kept from their
// recipients — lost, cut by a partition, or arriving at a down process —
// and the extra copies it delivered.
func (in *Injector) Undelivered() (dropped, duplicates int) {
	st := &in.stats
	return st.Lost + st.PartitionDrops + st.DroppedToDown, st.Duplicates
}

// NoteDroppedToDown counts a message that arrived at a down process.
func (in *Injector) NoteDroppedToDown() { in.stats.DroppedToDown++ }

// NoteTimerDropped counts a timer invalidated by a crash or retirement.
func (in *Injector) NoteTimerDropped() { in.stats.TimersDropped++ }

// NotePendingAtCrash counts an in-flight operation orphaned by a crash.
func (in *Injector) NotePendingAtCrash() { in.stats.PendingAtCrash++ }

// NoteStrandedInvoke counts an invocation the down process never received.
func (in *Injector) NoteStrandedInvoke() { in.stats.StrandedInvokes++ }

// StatsAt snapshots the accumulated statistics, closing open down spans at
// the observation instant (typically the simulator's final time).
func (in *Injector) StatsAt(now model.Time) Stats {
	st := in.stats
	st.Downtime = make([]model.Time, in.n)
	copy(st.Downtime, in.downAccum)
	for p := 0; p < in.n; p++ {
		if in.down[p] || in.retired[p] {
			if now > in.downSince[p] {
				st.Downtime[p] += now - in.downSince[p]
			}
		}
	}
	return st
}

// InjectedBreaches renders the materialized faults as breaches of the model
// assumptions, one per fault family that actually fired. Symptom breaches
// (non-linearizable history, divergence, bound excess) are the engine's to
// add — it owns the checker and the bounds.
func (in *Injector) InjectedBreaches(now model.Time) []Breach {
	st := in.StatsAt(now)
	var out []Breach
	if st.Crashes > 0 {
		var down model.Time
		detail := ""
		for p := 0; p < in.n; p++ {
			if st.Downtime[p] > 0 && !in.retired[p] {
				if detail != "" {
					detail += "; "
				}
				detail += fmt.Sprintf("replica %d down for %s", p, st.Downtime[p])
				down += st.Downtime[p]
			}
		}
		if st.PendingAtCrash > 0 {
			detail += fmt.Sprintf("; %d in-flight operation(s) left pending", st.PendingAtCrash)
		}
		if st.TimersDropped > 0 {
			detail += fmt.Sprintf("; %d timer(s) lost", st.TimersDropped)
		}
		out = append(out, Breach{Assumption: AssumptionNoCrash, Detail: detail, Amount: down, Count: st.Crashes})
	}
	if st.Retirements > 0 {
		detail := ""
		for p := 0; p < in.n; p++ {
			if in.retired[p] {
				if detail != "" {
					detail += "; "
				}
				detail += fmt.Sprintf("replica %d retired at %s", p, in.downSince[p])
			}
		}
		out = append(out, Breach{Assumption: AssumptionNoChurn, Detail: detail, Count: st.Retirements})
	}
	if st.Lost > 0 || st.DroppedToDown > 0 {
		out = append(out, Breach{
			Assumption: AssumptionReliableDelivery,
			Detail:     fmt.Sprintf("%d message(s) lost in flight, %d dropped at down replicas", st.Lost, st.DroppedToDown),
			Count:      st.Lost + st.DroppedToDown,
		})
	}
	if st.Duplicates > 0 {
		out = append(out, Breach{
			Assumption: AssumptionExactlyOnce,
			Detail:     fmt.Sprintf("%d duplicate delivery(ies) injected", st.Duplicates),
			Count:      st.Duplicates,
		})
	}
	if st.PartitionDrops > 0 {
		out = append(out, Breach{
			Assumption: AssumptionConnectivity,
			Detail:     fmt.Sprintf("%d message(s) dropped crossing a partition", st.PartitionDrops),
			Count:      st.PartitionDrops,
		})
	}
	return out
}
