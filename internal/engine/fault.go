package engine

import (
	"fmt"
	"strings"

	"timebounds/internal/fault"
	"timebounds/internal/history"
	"timebounds/internal/model"
	"timebounds/internal/sim"
	"timebounds/internal/spec"
)

// FaultSpec is the grid axis for fault injection: a named, parameter-
// generic builder of fault plans. The zero value means no faults — a
// scenario with a zero FaultSpec takes the exact fault-free path it always
// did (pay-for-what-you-use), down to bit-identical Results.
type FaultSpec struct {
	// Name labels the spec in scenario names, reports and -faults flags.
	Name string
	// Build produces the run's fault plan; it must be a deterministic pure
	// function of (p, seed). Nil disables fault injection.
	Build func(p model.Params, seed int64) *fault.Plan
}

// enabled reports whether the spec injects anything.
func (fs FaultSpec) enabled() bool { return fs.Build != nil }

// label names the spec in derived scenario names.
func (fs FaultSpec) label() string {
	if fs.Name != "" {
		return fs.Name
	}
	return "faults"
}

// The two horns of a faulted run's dichotomy verdict: every faulted run
// yields exactly one of them, never "unknown".
const (
	// VerdictWithinBound: the history linearizes, the serving copies agree,
	// and every completed operation paid at most its class bound plus the
	// plan's fault allowance — the model's guarantees survived the faults.
	VerdictWithinBound = "within-bound"
	// VerdictAssumptionBroken: the run shows what broke — the report's
	// breaches pinpoint the violated model assumptions and the observed
	// symptoms, each with a magnitude.
	VerdictAssumptionBroken = "assumption-broken"
)

// FaultReport is the dichotomy verdict of one faulted run.
type FaultReport struct {
	// Family is the fault spec's name; Plan the concrete plan's.
	Family string
	Plan   string
	// Verdict is VerdictWithinBound or VerdictAssumptionBroken.
	Verdict string
	// Breaches pinpoint the broken assumptions and observed symptoms;
	// empty exactly when the verdict is within-bound.
	Breaches []fault.Breach
	// Stats accounts for the faults that materialized.
	Stats fault.Stats
	// Pending counts operations left pending forever (crash-orphaned).
	Pending int
}

// Summary renders the verdict with its dominant breach, for tables.
func (fr FaultReport) Summary() string {
	if fr.Verdict != VerdictAssumptionBroken || len(fr.Breaches) == 0 {
		return fr.Verdict
	}
	return fr.Verdict + ": " + fr.Breaches[0].String()
}

// FaultSpecs returns the bundled fault families, one per fault axis the
// model can break: crash/recover, crash without recovery, churn, message
// loss, duplication, partition, and the two drift regimes.
func FaultSpecs() []FaultSpec {
	return []FaultSpec{
		{Name: "crash-recover", Build: func(p model.Params, _ int64) *fault.Plan { return fault.CrashRecover(p) }},
		{Name: "crash", Build: func(p model.Params, _ int64) *fault.Plan { return fault.CrashForever(p) }},
		{Name: "churn", Build: func(p model.Params, _ int64) *fault.Plan { return fault.Churn(p) }},
		{Name: "loss", Build: func(p model.Params, _ int64) *fault.Plan { return fault.Lossy(p) }},
		{Name: "dup", Build: func(p model.Params, _ int64) *fault.Plan { return fault.Duplicating(p) }},
		{Name: "partition", Build: func(p model.Params, _ int64) *fault.Plan { return fault.Partitioned(p) }},
		{Name: "drift-mild", Build: func(p model.Params, _ int64) *fault.Plan { return fault.DriftMild(p) }},
		{Name: "drift", Build: func(p model.Params, _ int64) *fault.Plan { return fault.DriftHarsh(p) }},
	}
}

// FaultSpecNames lists the bundled fault family names, in FaultSpecs order.
func FaultSpecNames() []string {
	specs := FaultSpecs()
	names := make([]string, len(specs))
	for i, fs := range specs {
		names[i] = fs.Name
	}
	return names
}

// FaultSpecByName resolves a bundled fault family by name.
func FaultSpecByName(name string) (FaultSpec, error) {
	for _, fs := range FaultSpecs() {
		if fs.Name == name {
			return fs, nil
		}
	}
	return FaultSpec{}, fmt.Errorf("engine: unknown fault family %q (want %s)",
		name, strings.Join(FaultSpecNames(), "|"))
}

// faultRuntime builds the plan and per-run injector for a resolved
// scenario; (nil, nil, nil) when the scenario injects no faults.
func (sc Scenario) faultRuntime() (*fault.Plan, *fault.Injector, error) {
	if !sc.Faults.enabled() {
		return nil, nil, nil
	}
	if err := sc.Params.Validate(); err != nil {
		return nil, nil, err // plan builders may assume valid parameters
	}
	plan := sc.Faults.Build(sc.Params, sc.Seed)
	in, err := fault.NewInjector(plan, sc.Params.N)
	if err != nil {
		return nil, nil, err
	}
	return plan, in, nil
}

// faultReport renders the run's dichotomy verdict. The clean horn requires
// the history to linearize (when checked), the serving copies to agree, no
// operation stranded pending, every completed operation within its class
// bound plus the plan's crash-adjusted allowance, and the clocks within
// the ε skew envelope (res.Model). Anything else is the broken horn, with
// the injected faults and observed symptoms rendered as breaches — which
// model assumption broke, and by how much.
func faultReport(sc Scenario, dt spec.DataType, plan *fault.Plan, in *fault.Injector,
	res Result, s *sim.Simulator) *FaultReport {

	stats, _ := s.FaultStats()
	fr := &FaultReport{
		Family:  sc.Faults.label(),
		Plan:    plan.Name,
		Stats:   stats,
		Pending: res.Pending,
	}
	// The drift/window horizon is the run's last response, the instant the
	// judge takes skew at: fault activity after every operation answered
	// cannot have delayed one.
	lastRespond := s.LastResponse()
	// Crash-adjusted class bounds: the theoretical bound plus the plan's
	// allowance for the fault windows overlapping the operation.
	var worstExcess model.Time
	var worstOp history.OpID
	var worstKind spec.OpKind
	for op := range res.History.All() {
		if op.Pending {
			continue
		}
		bound := sc.Backend.Bound(sc.Params, sc.X, dt.Class(op.Kind)) +
			plan.Allowance(op.Invoke, op.Respond, lastRespond)
		if excess := op.Latency() - bound; excess > worstExcess {
			worstExcess, worstOp, worstKind = excess, op.ID, op.Kind
		}
	}
	// Drift past the ε skew envelope breaks the model's precondition even
	// before a symptom materializes, so it is itself the broken horn. The
	// judge takes skew at the same instant, the last response.
	skewBroken := res.Model.Condition == fault.SkewBroken

	clean := res.Converged && !res.violated() &&
		res.Pending == 0 && worstExcess == 0 && !skewBroken
	if clean {
		fr.Verdict = VerdictWithinBound
		return fr
	}
	fr.Verdict = VerdictAssumptionBroken
	if in != nil {
		fr.Breaches = in.InjectedBreaches(lastRespond)
	}
	if skewBroken {
		fr.Breaches = append(fr.Breaches, fault.Breach{
			Assumption: fault.AssumptionBoundedSkew,
			Detail:     fmt.Sprintf("worst pairwise clock skew exceeds ε=%s by %s by the run's end", sc.Params.Epsilon, res.Model.Amount),
			Amount:     res.Model.Amount,
		})
	}
	if res.violated() {
		fr.Breaches = append(fr.Breaches, fault.Breach{
			Assumption: fault.SymptomLinearizability,
			Detail:     "the faulted history admits no linearization",
		})
	}
	if !res.Converged {
		fr.Breaches = append(fr.Breaches, fault.Breach{
			Assumption: fault.SymptomConvergence,
			Detail:     res.Diverged,
		})
	}
	if worstExcess > 0 {
		fr.Breaches = append(fr.Breaches, fault.Breach{
			Assumption: fault.SymptomClassBound,
			Detail: fmt.Sprintf("operation %d (%s) exceeded its crash-adjusted %s bound by %s",
				worstOp, worstKind, dt.Class(worstKind), worstExcess),
			Amount: worstExcess,
		})
	}
	return fr
}
