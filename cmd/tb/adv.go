package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"timebounds/internal/adversary"
	"timebounds/internal/engine"
	"timebounds/internal/model"
)

// advRow is one witness-table entry, stable for the -json artifact. Holds
// is the family-level dichotomy verdict (a premature tuning's family holds
// by violating in at least one member run).
type advRow struct {
	Scenario string     `json:"scenario"`
	Family   string     `json:"family"`
	Kind     string     `json:"witness_op"`
	Latency  model.Time `json:"latency_ns"`
	Bound    model.Time `json:"bound_ns"`
	Margin   model.Time `json:"margin_ns"`
	Violated bool       `json:"violated"`
	Holds    bool       `json:"holds"`
}

// faultRow is one fault-dichotomy entry of the -faults artifact: the
// verdict horn plus, on the broken horn, the breached assumptions.
type faultRow struct {
	Scenario string   `json:"scenario"`
	Family   string   `json:"family"`
	Plan     string   `json:"plan"`
	Verdict  string   `json:"verdict"`
	Breaches []string `json:"breaches,omitempty"`
	Faults   int      `json:"faults_injected"`
	Pending  int      `json:"pending_ops"`
}

// runAdv runs the paper's lower-bound adversary constructions — Figure 1
// and Theorems C.1, D.1, E.1 — as engine grids, sweeping the run families
// across (ε, u, d) parameter points and both tunings (premature: one time
// unit below the proved bound; correct: the proven algorithm), and prints
// the resulting witness table: per run, the operation whose latency
// witnesses the theoretical lower bound, its margin, and whether the
// adversary exposed a linearizability violation. Every row must HOLD the
// theorem dichotomy — a linearizable run below the bound would falsify
// the paper.
//
// With -faults, it additionally drives the engineered fault families —
// crash, churn, loss, duplication, partition, drift — and prints their
// dichotomy table: every faulted run must land on exactly one horn,
// within the crash-adjusted bound or a breach report naming the broken
// model assumption.
func runAdv(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("adv", stderr)
	var (
		advF     = fs.String("adversaries", strings.Join(adversary.SpecNames(), ","), "comma-separated constructions")
		backends = fs.String("backends", "algorithm1", "comma-separated backends to compose with")
		dsF      = fs.String("ds", "10ms", "comma-separated delay bounds d")
		usF      = fs.String("us", "4ms", "comma-separated delay uncertainties u")
		shift    = fs.Float64("shift", 1.0, "clock-shift fraction of the full proof shift")
		modesF   = fs.String("modes", "premature,correct", "tunings to drive: premature, correct")
		faultsF  = fs.String("faults", "", "fault families to drive: all, or a comma-separated subset of "+strings.Join(adversary.FaultFamilyNames(), ","))
		workers  = fs.Int("workers", 0, "parallel workers (0 = all cores)")
		asJSON   = fs.Bool("json", false, "emit the witness (and fault) tables as JSON")
		m        = addModelFlags(fs, "n", 3, 0)
	)
	if err := parse(fs, args); err != nil {
		return err
	}

	sf := adversary.ShiftFraction{}
	if *shift != 1.0 {
		sf = adversary.Frac(*shift)
	}
	var grid engine.Grid
	var err error
	if grid.Backends, err = list(*backends, engine.BackendByName); err != nil {
		return err
	}
	modes, err := list(*modesF, func(mode string) (bool, error) {
		switch mode {
		case "premature":
			return false, nil
		case "correct":
			return true, nil
		}
		return false, fmt.Errorf("unknown mode %q (want premature|correct)", mode)
	})
	if err != nil {
		return err
	}
	for _, correct := range modes {
		specs, err := list(*advF, func(name string) (engine.AdversarySpec, error) {
			return adversary.SpecByName(name, correct, sf)
		})
		if err != nil {
			return err
		}
		grid.Adversaries = append(grid.Adversaries, specs...)
	}
	if *faultsF != "" {
		names := *faultsF
		if names == "all" {
			names = strings.Join(adversary.FaultFamilyNames(), ",")
		}
		families, err := list(names, adversary.FaultFamilyByName)
		if err != nil {
			return err
		}
		grid.Adversaries = append(grid.Adversaries, families...)
	}
	ds, err := list(*dsF, time.ParseDuration)
	if err != nil {
		return err
	}
	us, err := list(*usF, time.ParseDuration)
	if err != nil {
		return err
	}
	for _, d := range ds {
		for _, u := range us {
			grid.Params = append(grid.Params, model.Params{N: m.n, D: d, U: u})
		}
	}

	rep := engine.New(*workers).Run(grid.Scenarios())
	holds := make(map[string]bool)
	for _, f := range rep.WitnessFamilies() {
		holds[f.Family] = f.Holds()
	}
	rows := make([]advRow, 0, len(rep.Results))
	for _, res := range rep.Results {
		w := res.Witness
		if w == nil {
			continue
		}
		rows = append(rows, advRow{
			Scenario: res.Name,
			Family:   w.Family,
			Kind:     string(w.Kind),
			Latency:  w.Latency,
			Bound:    w.Bound,
			Margin:   w.Margin(),
			Violated: res.Checked && !res.Linearizable,
			Holds:    holds[w.Family],
		})
	}
	var frows []faultRow
	for _, nf := range rep.FaultReports() {
		fr := faultRow{
			Scenario: nf.Scenario,
			Family:   nf.Fault.Family,
			Plan:     nf.Fault.Plan,
			Verdict:  nf.Fault.Verdict,
			Faults:   nf.Fault.Stats.Total(),
			Pending:  nf.Fault.Pending,
		}
		for _, b := range nf.Fault.Breaches {
			fr.Breaches = append(fr.Breaches, b.String())
		}
		frows = append(frows, fr)
	}
	if *asJSON {
		var artifact any = rows
		if len(frows) > 0 {
			artifact = struct {
				Witnesses []advRow   `json:"witnesses"`
				Faults    []faultRow `json:"faults"`
			}{rows, frows}
		}
		data, err := json.MarshalIndent(artifact, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(data))
	} else {
		fmt.Fprint(stdout, rep.RenderWitnesses())
		if len(frows) > 0 {
			fmt.Fprintf(stdout, "\n%s", rep.RenderFaults())
		}
		fmt.Fprintf(stdout, "\n%d adversary runs, %d operations\n", len(rows), rep.Ops())
	}
	if err := rep.Err(); err != nil {
		return err
	}
	if !*asJSON {
		fmt.Fprintln(stdout, "every family upholds the theorem dichotomy (a violation, or latency ≥ bound)")
		if len(frows) > 0 {
			fmt.Fprintln(stdout, "every faulted run lands on exactly one dichotomy horn (within-bound, or a named breach)")
		}
	}
	return nil
}
