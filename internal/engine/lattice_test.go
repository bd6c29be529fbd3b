package engine

import (
	"reflect"
	"testing"
	"time"

	"timebounds/internal/core"
	"timebounds/internal/model"
	"timebounds/internal/types"
	"timebounds/internal/workload"
)

func latticeParams(n int) model.Params {
	p := model.Params{N: n, D: 10 * time.Millisecond, U: 4 * time.Millisecond}
	p.Epsilon = p.OptimalSkew()
	return p
}

// rmwRace races two RMWs plus a late read: the scenario every lattice world
// of the RMW tests starts from.
func rmwRace(p model.Params, tuning core.Tuning) Scenario {
	return Scenario{
		Backend:  Algorithm1{Tuning: tuning},
		DataType: types.NewRMWRegister(0),
		Params:   p,
		Workload: workload.Spec{Explicit: []workload.Invocation{
			{At: 2 * p.D, Proc: 0, Kind: types.OpRMW, Arg: 1},
			{At: 2*p.D + p.Epsilon - 1, Proc: 1, Kind: types.OpRMW, Arg: 2},
			{At: 8 * p.D, Proc: 2, Kind: types.OpRead},
		}},
		Verify: true,
	}
}

// runLattice expands base over l and runs every world, failing the test
// unless the lattice has exactly wantWorlds worlds.
func runLattice(t *testing.T, l Lattice, base Scenario, wantWorlds int) Report {
	t.Helper()
	worlds, err := l.Worlds(base)
	if err != nil {
		t.Fatalf("Worlds: %v", err)
	}
	if len(worlds) != wantWorlds {
		t.Fatalf("%d worlds, want %d", len(worlds), wantWorlds)
	}
	return New(0).Run(worlds)
}

// failing returns the results that are not OK.
func failing(rep Report) []Result {
	var bad []Result
	for _, r := range rep.Results {
		if !r.OK() {
			bad = append(bad, r)
		}
	}
	return bad
}

// requireAllOK fails the test with the first failing world's name and
// history unless every world is OK: linearizable, convergent and within
// every class bound.
func requireAllOK(t *testing.T, rep Report) {
	t.Helper()
	if bad := failing(rep); len(bad) > 0 {
		t.Fatalf("%d/%d worlds failed; first: %s err=%q linearizable=%v diverged=%q bounds=%+v\n%s",
			len(bad), len(rep.Results), bad[0].Name, bad[0].Err, bad[0].Linearizable,
			bad[0].Diverged, bad[0].Bounds, bad[0].History)
	}
}

func TestLatticeAlgorithmOneCorrectEverywhere(t *testing.T) {
	// Every combination of {d-u, d} delays (wrapped over 5 slots) × every
	// {0, -ε} offset assignment: 2^3 × 2^5 worlds.
	rep := runLattice(t, Lattice{MaxMessages: 5}, rmwRace(latticeParams(3), core.Tuning{}), 256)
	requireAllOK(t, rep)
}

func TestLatticeFindsPrematureViolations(t *testing.T) {
	// A premature self-add fails in 160 worlds of the very same lattice.
	tuning := core.Tuning{SelfAddDelay: core.OverrideTime{Override: true, Value: 0}}
	worlds, err := Lattice{MaxMessages: 5}.Worlds(rmwRace(latticeParams(3), tuning))
	if err != nil {
		t.Fatalf("Worlds: %v", err)
	}
	rep := New(8).Run(worlds)
	bad := failing(rep)
	if len(rep.Results) != 256 || len(bad) != 160 {
		t.Fatalf("%d/%d worlds failed, want 160/256", len(bad), len(rep.Results))
	}
	for _, r := range bad {
		if r.Err != "" || !r.Checked || (r.Linearizable && r.Converged) {
			t.Fatalf("world %s failed without a violation: err=%q", r.Name, r.Err)
		}
	}
	// Each world delays messages through its own choice vector: a run on
	// one worker must report exactly what eight parallel workers report.
	if serial := New(1).Run(worlds); !reflect.DeepEqual(serial, rep) {
		t.Fatal("lattice report differs between 1 and 8 workers")
	}
}

func TestLatticeQueueScenario(t *testing.T) {
	p := latticeParams(3)
	rep := runLattice(t, Lattice{MaxMessages: 4}, Scenario{
		DataType: types.NewQueue(),
		Params:   p,
		Workload: workload.Spec{Explicit: []workload.Invocation{
			{At: 2 * p.D, Proc: 0, Kind: types.OpEnqueue, Arg: "a"},
			{At: 2 * p.D, Proc: 1, Kind: types.OpEnqueue, Arg: "b"},
			{At: 6 * p.D, Proc: 2, Kind: types.OpDequeue},
			{At: 9 * p.D, Proc: 2, Kind: types.OpDequeue},
		}},
		Verify: true,
	}, 128)
	requireAllOK(t, rep)
}

func TestLatticeRejectsBadInput(t *testing.T) {
	p := latticeParams(2)
	base := Scenario{DataType: types.NewRegister(0), Params: p}
	if worlds, err := (Lattice{MaxMessages: -1}).Worlds(base); err == nil {
		t.Errorf("negative MaxMessages: accepted, %d worlds", len(worlds))
	}
	base.Params.U = base.Params.D + 1
	if worlds, err := (Lattice{}).Worlds(base); err == nil {
		t.Errorf("u > d: accepted, %d worlds", len(worlds))
	}
}

// TestLatticeSoakFourProcesses enumerates the RMW race on four processes,
// with an independent delay choice for each of its six messages: 2^4 × 2^6
// distinct worlds. Skipped under -short.
func TestLatticeSoakFourProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped with -short")
	}
	l := Lattice{MaxMessages: 6}
	requireAllOK(t, runLattice(t, l, rmwRace(latticeParams(4), core.Tuning{}), 1024))
}
