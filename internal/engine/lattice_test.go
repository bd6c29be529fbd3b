package engine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"timebounds/internal/core"
	"timebounds/internal/history"
	"timebounds/internal/model"
	"timebounds/internal/sim"
	"timebounds/internal/spec"
	"timebounds/internal/types"
	"timebounds/internal/workload"
)

func latticeParams(n int) model.Params {
	p := model.Params{N: n, D: 10 * time.Millisecond, U: 4 * time.Millisecond}
	p.Epsilon = p.OptimalSkew()
	return p
}

// rmwRace races two RMWs plus a late read: the scenario every lattice world
// of the RMW tests starts from. It sends 2n-2 messages in every world.
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

// queueRace enqueues concurrently at two processes and dequeues twice at a
// third: eight messages in every world.
func queueRace(p model.Params) Scenario {
	return Scenario{
		DataType: types.NewQueue(),
		Params:   p,
		Workload: workload.Spec{Explicit: []workload.Invocation{
			{At: 2 * p.D, Proc: 0, Kind: types.OpEnqueue, Arg: "a"},
			{At: 2 * p.D, Proc: 1, Kind: types.OpEnqueue, Arg: "b"},
			{At: 6 * p.D, Proc: 2, Kind: types.OpDequeue},
			{At: 9 * p.D, Proc: 2, Kind: types.OpDequeue},
		}},
		Verify: true,
	}
}

// runLattice runs base's whole lattice on e, failing the test unless it
// has exactly wantWorlds worlds.
func runLattice(t *testing.T, e *Engine, base Scenario, wantWorlds int) Report {
	t.Helper()
	rep, err := e.RunLattice(base)
	if err != nil {
		t.Fatalf("RunLattice: %v", err)
	}
	if len(rep.Results) != wantWorlds {
		t.Fatalf("%d worlds, want %d", len(rep.Results), wantWorlds)
	}
	return rep
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

// realized renders the world a traced Result ran in: its clock offsets
// and the delay of each message in send order.
func realized(t *testing.T, res Result) (world string, msgs int) {
	t.Helper()
	if res.Run == nil {
		t.Fatalf("world %s ran untraced", res.Name)
	}
	var b strings.Builder
	for _, v := range res.Run.Views {
		fmt.Fprintf(&b, "%v ", v.ClockOffset)
	}
	b.WriteString("|")
	for _, m := range res.Run.Msgs {
		fmt.Fprintf(&b, " %v", m.Delay())
	}
	return b.String(), len(res.Run.Msgs)
}

// TestLatticeVisitsEveryWorldOnce holds the explorer to its lattice: on
// scenarios whose every run sends k messages, the worlds it ran realize
// 2^n·2^k distinct (offsets, delays) vectors, each drawn from the
// extremes, which is every vector of the lattice exactly once.
func TestLatticeVisitsEveryWorldOnce(t *testing.T) {
	p := latticeParams(3)
	for _, tc := range []struct {
		name string
		base Scenario
		msgs int
	}{
		{"rmw-race", rmwRace(p, core.Tuning{}), 4},
		{"queue", queueRace(p), 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.base.Trace = true
			rep := runLattice(t, New(0), tc.base, 1<<(p.N+tc.msgs))
			seen := make(map[string]string, len(rep.Results))
			for _, res := range rep.Results {
				w, msgs := realized(t, res)
				if msgs != tc.msgs {
					t.Fatalf("world %s sent %d messages, want %d", res.Name, msgs, tc.msgs)
				}
				if prev, ok := seen[w]; ok {
					t.Fatalf("worlds %s and %s both ran %s", prev, res.Name, w)
				}
				seen[w] = res.Name
				for _, v := range res.Run.Views {
					if v.ClockOffset != 0 && v.ClockOffset != -p.Epsilon {
						t.Fatalf("world %s: offset %v outside {0, -ε}", res.Name, v.ClockOffset)
					}
				}
				for _, m := range res.Run.Msgs {
					if d := m.Delay(); d != p.MinDelay() && d != p.D {
						t.Fatalf("world %s: delay %v outside {d-u, d}", res.Name, d)
					}
				}
			}
		})
	}
}

// pingBackend is a two-message protocol whose second message depends on
// the first one's delay: an operation at process 0 responds at once and
// pings process 1, which answers only a ping that took d.
type pingBackend struct{}

func (pingBackend) Name() string { return "ping" }

func (pingBackend) Bound(p model.Params, _ model.Time, _ spec.OpClass) model.Time { return p.D }

func (pingBackend) Build(cfg BuildConfig) (Instance, error) {
	simCfg := cfg.Sim
	simCfg.Params = cfg.Params
	procs := make([]sim.Process, cfg.Params.N)
	states := make([]StateProbe, cfg.Params.N)
	for i := range procs {
		pp := &pinger{offset: simCfg.ClockOffsets[i], d: cfg.Params.D, state: cfg.DataType.InitialState()}
		procs[i], states[i] = pp, pp
	}
	s, err := sim.New(simCfg, procs)
	if err != nil {
		return nil, err
	}
	return NewSimInstance(s, cfg.DataType, states), nil
}

// pinger reads real time off its clock through the offset the test gave
// it, so a ping carries its real send time and its receiver its delay.
type pinger struct {
	offset, d model.Time
	state     spec.State
}

func (pp *pinger) OnInvoke(env sim.Env, id history.OpID, _ spec.OpKind, _ spec.Value) {
	env.Respond(id, 0)
	env.Send(1, sim.Msg{Clock: env.ClockTime() - pp.offset})
}

func (pp *pinger) OnMessage(env sim.Env, from model.ProcessID, m sim.Msg) {
	if env.Self() == 1 && env.ClockTime()-pp.offset-m.Clock == pp.d {
		env.Send(from, sim.Msg{})
	}
}

func (pp *pinger) OnTimer(sim.Env, any) {}

func (pp *pinger) State() spec.State { return pp.state }

// TestLatticeBranchesOnSentMessages runs a protocol that sends its second
// message only when the first took d: per offset assignment exactly the
// three reachable delay vectors run, (d-u), (d, d-u) and (d, d), and the
// report is the same at any worker count.
func TestLatticeBranchesOnSentMessages(t *testing.T) {
	p := latticeParams(2)
	base := Scenario{
		Backend:  pingBackend{},
		DataType: types.NewRegister(0),
		Params:   p,
		Workload: workload.Spec{Explicit: []workload.Invocation{{At: p.D, Proc: 0, Kind: types.OpRead}}},
		Trace:    true,
	}
	rep := runLattice(t, New(8), base, 3<<p.N)
	requireAllOK(t, rep)
	perOffsets := make(map[string][]string)
	for _, res := range rep.Results {
		w, _ := realized(t, res)
		offsets, delays, _ := strings.Cut(w, "|")
		perOffsets[offsets] = append(perOffsets[offsets], delays)
	}
	fast, slow := " "+p.MinDelay().String(), " "+p.D.String()
	want := []string{fast, slow + fast, slow + slow}
	for offsets, got := range perOffsets {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("offsets %s: delay vectors %q, want %q", offsets, got, want)
		}
	}
	if len(perOffsets) != 1<<p.N {
		t.Errorf("%d offset assignments, want %d", len(perOffsets), 1<<p.N)
	}
	serial := runLattice(t, New(1), base, 3<<p.N)
	if !reflect.DeepEqual(serial, rep) {
		t.Fatal("lattice report differs between 1 and 8 workers")
	}
}

func TestLatticeAlgorithmOneCorrectEverywhere(t *testing.T) {
	// Every {d-u, d} delay of the race's four messages × every {0, -ε}
	// offset assignment: 2^3 × 2^4 worlds.
	requireAllOK(t, runLattice(t, New(0), rmwRace(latticeParams(3), core.Tuning{}), 128))
}

func TestLatticeFindsPrematureViolations(t *testing.T) {
	// A premature self-add fails in 80 worlds of the very same lattice.
	tuning := core.Tuning{SelfAddDelay: core.OverrideTime{Override: true, Value: 0}}
	base := rmwRace(latticeParams(3), tuning)
	rep := runLattice(t, New(8), base, 128)
	bad := failing(rep)
	if len(bad) != 80 {
		t.Fatalf("%d/%d worlds failed, want 80/128", len(bad), len(rep.Results))
	}
	for _, r := range bad {
		if r.Err != "" || !r.Checked || (r.Linearizable && r.Converged) {
			t.Fatalf("world %s failed without a violation: err=%q", r.Name, r.Err)
		}
	}
	// Each world delays messages through its own prefix: a run on one
	// worker must report exactly what eight parallel workers report.
	if serial := runLattice(t, New(1), base, 128); !reflect.DeepEqual(serial, rep) {
		t.Fatal("lattice report differs between 1 and 8 workers")
	}
}

func TestLatticeQueueScenario(t *testing.T) {
	// Eight messages, each delayed d-u or d, × 2^3 offset assignments.
	requireAllOK(t, runLattice(t, New(0), queueRace(latticeParams(3)), 2048))
}

func TestLatticeRejectsBadInput(t *testing.T) {
	base := Scenario{DataType: types.NewRegister(0), Params: latticeParams(2)}
	base.Params.U = base.Params.D + 1
	if rep, err := New(0).RunLattice(base); err == nil {
		t.Errorf("u > d: accepted, %d worlds", len(rep.Results))
	}
	// Past the cap, the error names the count found so far: the offsets
	// alone at n = 17, the first generations of the race at n = 7, whose
	// whole lattice has 2^19 worlds.
	for _, tc := range []struct {
		base Scenario
		want string
	}{
		{Scenario{DataType: types.NewRegister(0), Params: latticeParams(17)}, "at least 2^17 worlds, more than 65536"},
		{rmwRace(latticeParams(7), core.Tuning{}), "at least 101632 worlds, more than 65536"},
	} {
		if rep, err := New(0).RunLattice(tc.base); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("n=%d: err %v with %d worlds, want an error naming %q", tc.base.Params.N, err, len(rep.Results), tc.want)
		}
	}
}

// TestLatticeSoakFourProcesses enumerates the RMW race on four processes:
// every delay of its six messages × every offset assignment, 2^4 × 2^6
// worlds. Skipped under -short.
func TestLatticeSoakFourProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped with -short")
	}
	requireAllOK(t, runLattice(t, New(0), rmwRace(latticeParams(4), core.Tuning{}), 1024))
}
