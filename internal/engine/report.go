package engine

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"timebounds/internal/fault"
	"timebounds/internal/history"
	"timebounds/internal/model"
	"timebounds/internal/runs"
	"timebounds/internal/spec"
	"timebounds/internal/workload"
)

// BoundWitness records how one adversary-scenario run witnesses a
// theoretical lower bound: the constrained operation with the largest
// latency and the bound itself. Whether the run broke (a non-linearizable
// history, diverged copies) is the Result's own verdict. The theorems'
// dichotomy — an implementation either pays at least the bound or produces
// a non-linearizable history somewhere in the run family — is judged per
// family (FamilyWitness), not per run: an indistinguishability family
// deliberately contains members that linearize below the bound on their
// own.
type BoundWitness struct {
	// Family groups the runs of one adversary family (one adversary ×
	// backend × parameter point × seed) for the family-level verdict.
	Family string
	// Kind and Op identify the witness operation (the completed operation
	// among the declared witness kinds with the largest latency).
	Kind spec.OpKind
	Op   history.OpID
	// Latency is the witnessed latency: the worst case among the witness
	// kinds, or — for pair bounds — the sum of the per-kind worst cases.
	Latency model.Time
	// Bound is the theoretical lower bound under test.
	Bound model.Time
	// RequireLinearizable marks a proven-correct tuning, echoed from the
	// witness spec: the family verdict then forbids violations.
	RequireLinearizable bool
	// FaultDichotomy marks a fault family judged by the dichotomy — every
	// member must land on exactly one horn of its FaultReport verdict.
	FaultDichotomy bool
}

// Margin returns Latency - Bound: how far above the lower bound the
// implementation paid (negative for premature implementations).
func (w BoundWitness) Margin() model.Time { return w.Latency - w.Bound }

// FamilyWitness aggregates one adversary run family: the theorem's
// dichotomy says an implementation either pays at least the bound
// somewhere in the family or some member's history is not linearizable.
type FamilyWitness struct {
	// Family is the family key shared by the member runs.
	Family string
	// Bound is the theoretical lower bound the family witnesses.
	Bound model.Time
	// MaxLatency is the largest witnessed latency across the members.
	MaxLatency model.Time
	// Violated is true if any member's history failed linearizability.
	Violated bool
	// Diverged is true if any member's authoritative copies disagreed.
	Diverged bool
	// RequireLinearizable marks a proven-correct tuning: the verdict then
	// forbids violations and divergence rather than accepting them as the
	// dichotomy's other horn.
	RequireLinearizable bool
	// Runs counts the member runs.
	Runs int
	// FaultDichotomy marks a fault family: the verdict is the dichotomy
	// count — every member within-bound or assumption-broken, never
	// unknown. WithinBound and Broken count the members on each horn.
	FaultDichotomy bool
	WithinBound    int
	Broken         int
}

// Holds reports the family-level verdict, the one Report.Err words when
// it fails.
func (f FamilyWitness) Holds() bool { return f.failure() == nil }

// failure is the one verdict decision for a family: why it falsifies its
// dichotomy, or nil when it holds. A fault family holds when every member
// landed on one of the two horns. A premature tuning holds by a violation
// somewhere or by witnessed latency at least the bound; a correct
// implementation driven below the bound through the whole family would
// falsify it. For a proven-correct tuning (RequireLinearizable) the
// violation horn is a bug, not a witness: every member must linearize and
// converge AND the latency must meet the bound.
func (f FamilyWitness) failure() error {
	switch {
	case f.FaultDichotomy && (f.Runs == 0 || f.WithinBound+f.Broken != f.Runs):
		return fmt.Errorf("engine: adversary family %q: %d of %d runs landed on neither dichotomy horn (%s or %s)",
			f.Family, f.Runs-f.WithinBound-f.Broken, f.Runs, VerdictWithinBound, VerdictAssumptionBroken)
	case f.FaultDichotomy:
		return nil
	case f.RequireLinearizable && f.Violated:
		return fmt.Errorf("engine: adversary family %q: correct tuning produced a non-linearizable history", f.Family)
	case f.RequireLinearizable && f.Diverged:
		return fmt.Errorf("engine: adversary family %q: correct tuning diverged", f.Family)
	case f.Violated || f.MaxLatency >= f.Bound:
		return nil
	}
	return fmt.Errorf("engine: adversary family %q: every run linearizable yet max witness latency %s below lower bound %s",
		f.Family, f.MaxLatency, f.Bound)
}

// BoundCheck compares the measured worst-case latency of one operation
// class against the backend's theoretical bound.
type BoundCheck struct {
	// Class is the Chapter V operation class (MOP/AOP/OOP).
	Class spec.OpClass
	// Count is how many completed operations fell in the class.
	Count int
	// Bound is the backend's theoretical worst case for the class.
	Bound model.Time
	// Measured is the observed worst-case latency.
	Measured model.Time
	// OK is Measured ≤ Bound.
	OK bool
}

// Margin returns Bound - Measured (negative on violation).
func (b BoundCheck) Margin() model.Time { return b.Bound - b.Measured }

// Result is the structured outcome of one scenario run. It contains only
// model-time quantities, so equal seeds yield bit-identical Results.
type Result struct {
	// Name identifies the scenario.
	Name string
	// Backend, Object, Params, X, Seed echo the scenario coordinates.
	Backend string
	Object  string
	Params  model.Params
	X       model.Time
	Seed    int64
	// Err is non-empty if the run failed outright.
	Err string
	// Ops is the number of completed operations.
	Ops int
	// History is the run's full invocation/response history.
	History *history.History
	// PerKind holds latency statistics per operation kind.
	PerKind map[spec.OpKind]workload.Stats
	// Bounds holds the per-class measured-vs-theoretical comparisons.
	Bounds []BoundCheck
	// Checked is true if the linearizability checker ran; Linearizable is
	// its verdict.
	Checked      bool
	Linearizable bool
	// Converged is true if all authoritative copies agreed after the run;
	// State is their common encoding. On divergence, Diverged carries the
	// detail (which copy disagreed, both encodings).
	Converged bool
	State     string
	Diverged  string
	// Pending counts operations still pending at the horizon — nonzero
	// only in faulted runs, where a crash can orphan an in-flight op.
	Pending int
	// Model is the admissibility verdict — did the model of Chapter
	// III.B.3 hold — on every simulated run: admissible, or the first
	// assumption the run broke with its amount. Fault reports whether the
	// guarantees survived; a run can break the model and keep them. Live
	// runs leave it fault.Unmonitored.
	Model fault.Admissibility
	// Fault records the dichotomy verdict when the scenario injected a
	// fault plan; nil for fault-free runs.
	Fault *FaultReport
	// Witness records the lower-bound witness when the scenario declared
	// one (adversary scenarios); nil otherwise.
	Witness *BoundWitness
	// Live records the wall-clock run's estimator envelope and per-class
	// measured-vs-estimated-bound margins when the scenario ran on the
	// live runtime; nil for simulated runs.
	Live *LiveReport
	// Run is the recorded run (views + messages) when the scenario asked
	// for a trace; nil otherwise.
	Run *runs.Run
}

// OK reports whether the run completed, stayed within every class bound,
// converged, and (if checked) linearized. Witness scenarios are only held
// to run completion here: violations and divergence are the expected
// outcomes of a premature tuning, and the theorem dichotomy is judged
// across the whole family — by Report.OK and Report.Err via
// WitnessFamilies — not per run.
func (r Result) OK() bool { return r.failure() == nil }

// failure is the one verdict decision for a single run: why it failed, as
// Report.Err words it, or nil when it is OK.
func (r Result) failure() error {
	switch {
	case r.Err != "":
		return fmt.Errorf("engine: scenario %q: %s", r.Name, r.Err)
	case r.Fault != nil:
		// A faulted run is OK when it completed and landed on one of the
		// dichotomy's two horns — the broken horn is a valid outcome, not
		// a failure. Verdict completeness is judged per family.
		if r.Fault.Verdict == "" {
			return fmt.Errorf("engine: scenario %q: faulted run produced no dichotomy verdict", r.Name)
		}
		return nil
	case r.Witness != nil:
		return nil // violations and divergence are judged per family
	case r.Live != nil && r.Live.Undertuned():
		// A deliberately under-tuned live run is the premature-tuning
		// adversary on the wall clock: breaking (violation, divergence) or
		// bound-level latency in some class are its expected outcomes. It
		// fails only by falsifying that dichotomy.
		if r.violated() || !r.Converged {
			return nil
		}
		for _, c := range r.Live.Classes {
			if c.Max >= c.Bound {
				return nil
			}
		}
		return fmt.Errorf("engine: scenario %q: under-tuned live run linearizable, converged, and below every estimated bound — dichotomy falsified", r.Name)
	case !r.Converged:
		return fmt.Errorf("engine: scenario %q: %s", r.Name, r.Diverged)
	case r.violated():
		return fmt.Errorf("engine: scenario %q: history not linearizable", r.Name)
	}
	if err := exceeded(r.Bounds); err != nil {
		return fmt.Errorf("engine: scenario %q: %w", r.Name, err)
	}
	return nil
}

// violated reports that the checker ran and found no linearization.
func (r Result) violated() bool { return r.Checked && !r.Linearizable }

// exceeded words the first class whose worst latency broke its bound, the
// wording a run's and a sharded store's verdicts share; nil when every
// class held.
func exceeded(bounds []BoundCheck) error {
	for _, b := range bounds {
		if !b.OK {
			return fmt.Errorf("%s worst latency %s exceeds bound %s", b.Class, b.Measured, b.Bound)
		}
	}
	return nil
}

// foldBound is the one per-class worst-vs-bound fold: it folds a class's
// worst latency and operation count into bounds, kept in class order, and
// judges the class against bound. Any class value is a key, so a data
// type's own classes fold like the three of Chapter V.
func foldBound(bounds []BoundCheck, class spec.OpClass, worst model.Time, count int, bound model.Time) []BoundCheck {
	i, found := slices.BinarySearchFunc(bounds, class, func(b BoundCheck, c spec.OpClass) int { return cmp.Compare(b.Class, c) })
	if !found {
		bounds = slices.Insert(bounds, i, BoundCheck{Class: class, Bound: bound})
	}
	b := &bounds[i]
	b.Count += count
	b.Measured = max(b.Measured, worst)
	b.OK = b.Measured <= b.Bound
	return bounds
}

// WorstLatency returns the largest completed-operation latency of the run.
func (r Result) WorstLatency() model.Time {
	var worst model.Time
	for _, st := range r.PerKind {
		if st.Max > worst {
			worst = st.Max
		}
	}
	return worst
}

// MinMargin returns the tightest bound margin across classes (how close
// the run came to its theoretical envelope); 0 with no bounds.
func (r Result) MinMargin() model.Time {
	var min model.Time
	for i, b := range r.Bounds {
		if i == 0 || b.Margin() < min {
			min = b.Margin()
		}
	}
	return min
}

// Report aggregates the results of a scenario grid, in input order.
type Report struct {
	Results []Result
	// Incomplete counts scenarios that never reported because the run was
	// cancelled (Engine.RunContext); 0 for a complete grid. OK and Err
	// judge only the recorded Results — callers deciding whether a
	// cancelled grid "passed" must check Incomplete themselves.
	Incomplete int
}

// OK reports whether every scenario run is OK and every adversary run
// family upholds its witness dichotomy — the same verdict Err reports,
// as a boolean.
func (r Report) OK() bool { return r.Err() == nil }

// Err returns the first scenario failure as an error, or nil. Witness
// scenarios fail only when their family falsifies its dichotomy
// (FamilyWitness.Holds), not on the violations a premature tuning is
// expected to produce.
func (r Report) Err() error {
	for _, res := range r.Results {
		if err := res.failure(); err != nil {
			return err
		}
	}
	for _, f := range r.WitnessFamilies() {
		if err := f.failure(); err != nil {
			return err
		}
	}
	return nil
}

// WitnessFamilies aggregates the grid's witnesses per adversary run
// family, in order of first appearance. Each member's verdict is read from
// its Result.
func (r Report) WitnessFamilies() []FamilyWitness {
	var order []string
	byKey := make(map[string]*FamilyWitness)
	for _, res := range r.Results {
		if res.Witness == nil {
			continue
		}
		w, key := res.Witness, res.family()
		f, ok := byKey[key]
		if !ok {
			f = &FamilyWitness{
				Family:              key,
				Bound:               w.Bound,
				RequireLinearizable: w.RequireLinearizable,
				FaultDichotomy:      w.FaultDichotomy,
			}
			byKey[key] = f
			order = append(order, key)
		}
		f.Runs++
		f.MaxLatency = max(f.MaxLatency, w.Latency)
		f.Violated = f.Violated || res.violated()
		f.Diverged = f.Diverged || !res.Converged
		if res.Fault != nil {
			switch res.Fault.Verdict {
			case VerdictWithinBound:
				f.WithinBound++
			case VerdictAssumptionBroken:
				f.Broken++
			}
		}
	}
	out := make([]FamilyWitness, 0, len(order))
	for _, key := range order {
		out = append(out, *byKey[key])
	}
	return out
}

// family keys a witness run's family; an ungrouped witness stands alone
// under its scenario name.
func (r Result) family() string {
	if r.Witness.Family == "" {
		return r.Name
	}
	return r.Witness.Family
}

// RenderWitnesses renders the grid's witness table: one row per adversary
// run with the witness operation, bound, margin and whether the run's
// history linearized, and a verdict column carrying the family-level
// dichotomy.
func (r Report) RenderWitnesses() string {
	holds := make(map[string]bool)
	for _, f := range r.WitnessFamilies() {
		holds[f.Family] = f.Holds()
	}
	if len(holds) == 0 {
		return ""
	}
	w := 8
	for _, res := range r.Results {
		if res.Witness != nil {
			w = max(w, len(res.Name))
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s  %-14s  %10s  %10s  %10s  %-8s  %s\n",
		w, "scenario", "witness-op", "latency", "bound", "margin", "violated", "family-verdict")
	for _, res := range r.Results {
		bw := res.Witness
		if bw == nil {
			continue
		}
		verdict := "HOLDS"
		if !holds[res.family()] {
			verdict = "FALSIFIED"
		}
		fmt.Fprintf(&b, "%-*s  %-14s  %10s  %10s  %10s  %-8v  %s\n",
			w, res.Name, bw.Kind, bw.Latency, bw.Bound, bw.Margin(), res.violated(), verdict)
	}
	return b.String()
}

// NamedFault pairs a scenario name with its FaultReport.
type NamedFault struct {
	Scenario string
	Fault    FaultReport
}

// FaultReports returns the grid's fault verdicts in input order, skipping
// fault-free scenarios.
func (r Report) FaultReports() []NamedFault {
	var out []NamedFault
	for _, res := range r.Results {
		if res.Fault != nil {
			out = append(out, NamedFault{Scenario: res.Name, Fault: *res.Fault})
		}
	}
	return out
}

// RenderFaults renders the grid's fault-verdict table: one row per faulted
// run with its family, verdict, fault accounting, and — on the broken horn
// — the dominant breach.
func (r Report) RenderFaults() string {
	frs := r.FaultReports()
	if len(frs) == 0 {
		return ""
	}
	w, fw := 8, 6
	for _, nf := range frs {
		if len(nf.Scenario) > w {
			w = len(nf.Scenario)
		}
		if len(nf.Fault.Family) > fw {
			fw = len(nf.Fault.Family)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s  %-*s  %-17s  %6s  %7s  %s\n",
		w, "scenario", fw, "family", "verdict", "faults", "pending", "breach")
	for _, nf := range frs {
		fr := nf.Fault
		breach := "-"
		if len(fr.Breaches) > 0 {
			breach = fr.Breaches[0].String()
		}
		fmt.Fprintf(&b, "%-*s  %-*s  %-17s  %6d  %7d  %s\n",
			w, nf.Scenario, fw, fr.Family, fr.Verdict, fr.Stats.Total(), fr.Pending, breach)
	}
	return b.String()
}

// ByName returns the named result and whether it exists.
func (r Report) ByName(name string) (Result, bool) {
	for _, res := range r.Results {
		if res.Name == name {
			return res, true
		}
	}
	return Result{}, false
}

// Ops returns the total number of completed operations across the grid.
func (r Report) Ops() int {
	total := 0
	for _, res := range r.Results {
		total += res.Ops
	}
	return total
}

// String renders the report as an aligned table: one row per scenario with
// its verdicts, worst latency, and tightest bound margin.
func (r Report) String() string {
	var b strings.Builder
	w := 8
	for _, res := range r.Results {
		if len(res.Name) > w {
			w = len(res.Name)
		}
	}
	fmt.Fprintf(&b, "%-*s  %5s  %-6s  %-7s  %10s  %10s  %s\n",
		w, "scenario", "ops", "linear", "bounds", "worst", "margin", "state")
	for _, res := range r.Results {
		if res.Err != "" {
			fmt.Fprintf(&b, "%-*s  ERROR %s\n", w, res.Name, res.Err)
			continue
		}
		lin := "-"
		if res.Checked {
			lin = fmt.Sprintf("%v", res.Linearizable)
		}
		boundsOK := "ok"
		if exceeded(res.Bounds) != nil {
			boundsOK = "EXCEED"
		}
		state := res.State
		if !res.Converged {
			state = "DIVERGED"
		}
		if len(state) > 24 {
			state = state[:21] + "..."
		}
		fmt.Fprintf(&b, "%-*s  %5d  %-6s  %-7s  %10s  %10s  %s\n",
			w, res.Name, res.Ops, lin, boundsOK, res.WorstLatency(), res.MinMargin(), state)
	}
	return b.String()
}

// RenderKinds renders one result's per-kind latency table, kinds sorted.
func RenderKinds(res Result) string {
	kinds := make([]string, 0, len(res.PerKind))
	for k := range res.PerKind {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	var b strings.Builder
	for _, k := range kinds {
		st := res.PerKind[spec.OpKind(k)]
		fmt.Fprintf(&b, "  %-14s count=%-4d min=%-10s mean=%-10s p99=%-10s max=%s\n",
			k, st.Count, st.Min, st.Mean, st.P99, st.Max)
	}
	return b.String()
}
