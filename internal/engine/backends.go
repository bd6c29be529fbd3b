package engine

import (
	"fmt"

	"timebounds/internal/baseline"
	"timebounds/internal/bounds"
	"timebounds/internal/core"
	"timebounds/internal/history"
	"timebounds/internal/model"
	"timebounds/internal/sim"
	"timebounds/internal/spec"
	"timebounds/internal/tob"
	"timebounds/internal/workload"
)

// Instance is one runnable replicated object wired into a fresh simulator.
// It is the engine's unit of isolation: every scenario run builds its own.
type Instance interface {
	workload.Target
	// ConvergedState returns the common canonical state encoding of the
	// object's authoritative copies, or an error if they diverged.
	ConvergedState() (string, error)
}

// BuildConfig is everything a Backend needs to construct an Instance.
type BuildConfig struct {
	// Params are the timing parameters (ε already resolved).
	Params model.Params
	// X is the accessor/mutator tradeoff (Algorithm 1 only; others ignore it).
	X model.Time
	// DataType is the sequential specification to replicate.
	DataType spec.DataType
	// Sim is the simulator configuration (delay policy, clock offsets,
	// strictness). Params is overwritten with BuildConfig.Params.
	Sim sim.Config
	// replicas lends an engine worker's Algorithm 1 replicas to the run,
	// as Sim.Arena lends its event storage; nil means fresh replicas.
	replicas *core.Arena
}

// Backend is an implementation strategy for a linearizable shared object:
// Algorithm 1, the folklore baselines, or total-order broadcast. Backends
// are stateless descriptors; Build gives each run an isolated instance.
type Backend interface {
	// Name is the stable identifier used in reports and flags.
	Name() string
	// Build constructs an isolated instance for one run.
	Build(cfg BuildConfig) (Instance, error)
	// Bound returns the backend's theoretical worst-case response time for
	// operations of the given class, for measured-vs-bound margins.
	Bound(p model.Params, x model.Time, class spec.OpClass) model.Time
}

// Algorithm1 is the paper's Chapter V algorithm: pure mutators in ε+X,
// pure accessors in d+ε-X, everything else in d+ε.
type Algorithm1 struct {
	// Tuning optionally overrides the algorithm's wait durations. Zero
	// value means the proven-correct defaults; only the lower-bound
	// machinery sets it, to build deliberately premature implementations.
	Tuning core.Tuning
}

// Name implements Backend.
func (Algorithm1) Name() string { return "algorithm1" }

// Build implements Backend.
func (a Algorithm1) Build(cfg BuildConfig) (Instance, error) {
	return core.NewClusterOn(cfg.replicas, core.Config{Params: cfg.Params, X: cfg.X, Tuning: a.Tuning},
		cfg.DataType, cfg.Sim)
}

// WithTuning implements TunableBackend: it returns an Algorithm1 with the
// tuning applied, the hook adversary specs use to build deliberately
// premature implementations.
func (a Algorithm1) WithTuning(t core.Tuning) Backend {
	a.Tuning = t
	return a
}

// Bound implements Backend.
func (Algorithm1) Bound(p model.Params, x model.Time, class spec.OpClass) model.Time {
	switch class {
	case spec.ClassPureMutator:
		return bounds.UpperMutator(p, x)
	case spec.ClassPureAccessor:
		return bounds.UpperAccessor(p, x)
	default:
		return bounds.UpperOOP(p)
	}
}

// AllOOP is the folklore timestamp-total-order implementation: Algorithm 1
// with every operation forced onto the ordered OOP path, so everything
// responds in at most d+ε regardless of class.
type AllOOP struct{}

// Name implements Backend.
func (AllOOP) Name() string { return "all-oop" }

// Build implements Backend.
func (AllOOP) Build(cfg BuildConfig) (Instance, error) {
	return core.NewClusterOn(cfg.replicas, core.Config{Params: cfg.Params, X: cfg.X},
		baseline.AllOOP{Inner: cfg.DataType}, cfg.Sim)
}

// Bound implements Backend.
func (AllOOP) Bound(p model.Params, _ model.Time, _ spec.OpClass) model.Time {
	return bounds.UpperOOP(p)
}

// Centralized is the folklore coordinator baseline: process 0 owns the
// object and every remote operation is a request/response round trip, so
// the worst case is 2d.
type Centralized struct{}

// Name implements Backend.
func (Centralized) Name() string { return "centralized" }

// Build implements Backend.
func (Centralized) Build(cfg BuildConfig) (Instance, error) {
	procs := make([]sim.Process, cfg.Params.N)
	states := make([]interface{ StateEncoding() string }, cfg.Params.N)
	for i := range procs {
		c := baseline.NewCentralized(0, cfg.DataType)
		procs[i] = c
		states[i] = c
	}
	s, err := sim.New(withParams(cfg), procs)
	if err != nil {
		return nil, err
	}
	// Only the coordinator's copy is authoritative.
	return &simInstance{s: s, dt: cfg.DataType, states: states[:1]}, nil
}

// Bound implements Backend.
func (Centralized) Bound(p model.Params, _ model.Time, _ spec.OpClass) model.Time {
	return bounds.CentralizedUpper(p)
}

// TOB is the sequencer-based total-order-broadcast baseline: process 0
// sequences every operation; a non-sequencer operation costs one hop in and
// one ordered hop out, so the worst case is 2d — no faster than the
// centralized scheme, exactly as Chapter I.A.3 observes.
type TOB struct{}

// Name implements Backend.
func (TOB) Name() string { return "tob" }

// Build implements Backend.
func (TOB) Build(cfg BuildConfig) (Instance, error) {
	procs := make([]sim.Process, cfg.Params.N)
	states := make([]interface{ StateEncoding() string }, cfg.Params.N)
	for i := range procs {
		o := tob.NewObject(model.ProcessID(i), 0, cfg.DataType)
		procs[i] = o
		states[i] = o
	}
	s, err := sim.New(withParams(cfg), procs)
	if err != nil {
		return nil, err
	}
	return &simInstance{s: s, dt: cfg.DataType, states: states}, nil
}

// Bound implements Backend.
func (TOB) Bound(p model.Params, _ model.Time, _ spec.OpClass) model.Time {
	return 2 * p.D
}

// withParams stamps the scenario params into the sim config.
func withParams(cfg BuildConfig) sim.Config {
	sc := cfg.Sim
	sc.Params = cfg.Params
	return sc
}

// recycle ends an instance's run once its Result is built: the
// simulator's event storage, and an Algorithm 1 cluster's replicas, go
// back to the worker they were borrowed from (core.Cluster.Recycle).
func recycle(inst Instance) {
	if c, ok := inst.(*core.Cluster); ok {
		c.Recycle()
		return
	}
	inst.Simulator().Recycle()
}

// NewSimInstance adapts a raw simulator plus per-process state probes to
// the Instance interface, for custom backends defined outside this package
// (e.g. the adversary package's deliberately broken Figure 1
// implementation). Convergence compares every probe against the first.
func NewSimInstance(s *sim.Simulator, dt spec.DataType, states []interface{ StateEncoding() string }) Instance {
	return &simInstance{s: s, dt: dt, states: states}
}

// simInstance adapts a raw simulator plus per-process state probes to the
// Instance interface, for backends that are not core clusters.
type simInstance struct {
	s      *sim.Simulator
	dt     spec.DataType
	states []interface{ StateEncoding() string }
}

var _ Instance = (*simInstance)(nil)

func (i *simInstance) Invoke(at model.Time, proc model.ProcessID, kind spec.OpKind, arg spec.Value) {
	i.s.Invoke(at, proc, kind, arg)
}

func (i *simInstance) Run(horizon model.Time) error { return i.s.Run(horizon) }

func (i *simInstance) History() *history.History { return i.s.History() }

func (i *simInstance) DataType() spec.DataType { return i.dt }

func (i *simInstance) Simulator() *sim.Simulator { return i.s }

func (i *simInstance) ConvergedState() (string, error) {
	enc := i.states[0].StateEncoding()
	for j, st := range i.states {
		if got := st.StateEncoding(); got != enc {
			return "", fmt.Errorf("engine: copy %d state %q != copy 0 state %q", j, got, enc)
		}
	}
	return enc, nil
}

// Backends returns every bundled backend, Algorithm 1 first.
func Backends() []Backend {
	return []Backend{Algorithm1{}, AllOOP{}, Centralized{}, TOB{}}
}

// BackendByName resolves a backend by its Name, for flags and configs.
func BackendByName(name string) (Backend, error) {
	for _, b := range Backends() {
		if b.Name() == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("engine: unknown backend %q (want algorithm1|all-oop|centralized|tob)", name)
}
