package core

import (
	"fmt"

	"timebounds/internal/history"
	"timebounds/internal/model"
	"timebounds/internal/sim"
	"timebounds/internal/spec"
)

// Cluster wires n Algorithm 1 replicas of one data type into a simulator,
// offering a small scheduling API for tests, examples and benchmarks.
type Cluster struct {
	cfg      Config
	dt       spec.DataType
	replicas []*SimReplica
	sim      *sim.Simulator
	// arena is the Arena the replicas were borrowed from, until Recycle
	// returns them; nil for fresh replicas.
	arena *Arena
}

// Arena is reusable replica storage for a sequence of clusters: the
// SimReplicas of the last cluster built on it — with their timer FIFOs,
// To_Execute heaps, awaited-OOP maps and join buffers — and the process
// list its simulator read. A harness that builds many clusters back to
// back (one engine worker) lends the same Arena to each through
// NewClusterOn and takes it back with Cluster.Recycle; each cluster
// renews the replicas it borrows, so on a warm Arena a cluster of at most
// as many replicas as an earlier one allocates none.
//
// An Arena follows sim.Arena's lending rule: it serves one cluster at a
// time, a cluster built while it is lent out gets fresh replicas instead,
// and it is not safe for concurrent use. The zero value is ready to use.
type Arena struct {
	replicas []*SimReplica
	procs    []sim.Process
	lent     bool
}

// NewArena returns an empty arena; its replicas come with the first
// clusters it serves.
func NewArena() *Arena { return &Arena{} }

// NewCluster builds a cluster of cfg.Params.N replicas of dt.
// simCfg.Params is overwritten with cfg.Params; other sim options (delay
// policy, clock offsets, strictness) pass through.
func NewCluster(cfg Config, dt spec.DataType, simCfg sim.Config) (*Cluster, error) {
	return NewClusterOn(nil, cfg, dt, simCfg)
}

// NewClusterOn is NewCluster on the replicas of a, when a is set and
// idle; Recycle hands them back. Fresh storage is an empty Arena's: each
// replica is built once and renewed by the same code.
func NewClusterOn(a *Arena, cfg Config, dt spec.DataType, simCfg sim.Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	simCfg.Params = cfg.Params
	c := &Cluster{cfg: cfg, dt: dt}
	var replicas []*SimReplica
	var procs []sim.Process
	if a != nil && !a.lent {
		a.lent, c.arena = true, a
		replicas, procs = a.replicas, a.procs
	}
	n := cfg.Params.N
	for i := range n {
		if i == len(replicas) {
			replicas = append(replicas, newSimReplica())
			procs = append(procs, replicas[i])
		}
		replicas[i].renew(cfg, dt)
	}
	if c.arena != nil {
		a.replicas, a.procs = replicas, procs
	}
	c.replicas = replicas[:n]
	s, err := sim.New(simCfg, procs[:n])
	if err != nil {
		c.giveBack()
		return nil, err
	}
	c.sim = s
	return c, nil
}

// Recycle ends the cluster's life: the simulator's storage goes back to
// its sim.Arena (Simulator.Recycle) and the replicas to the Arena they
// were borrowed from, which renews them for its next cluster. Everything
// the run reports — History, ConvergedState, State, the simulator's
// traces — must be read first; the cluster must not be used afterwards.
// Recycle is idempotent.
func (c *Cluster) Recycle() {
	c.sim.Recycle()
	c.giveBack()
}

// giveBack returns the borrowed replicas to their Arena.
func (c *Cluster) giveBack() {
	if a := c.arena; a != nil {
		a.lent = false
		c.arena = nil
	}
}

// Invoke schedules an operation at real time at on process proc.
func (c *Cluster) Invoke(at model.Time, proc model.ProcessID, kind spec.OpKind, arg spec.Value) {
	c.sim.Invoke(at, proc, kind, arg)
}

// Run drives the simulation to quiescence (or the horizon).
func (c *Cluster) Run(horizon model.Time) error { return c.sim.Run(horizon) }

// History returns the recorded invocation/response history.
func (c *Cluster) History() *history.History { return c.sim.History() }

// Simulator exposes the underlying simulator (message/step traces).
func (c *Cluster) Simulator() *sim.Simulator { return c.sim }

// DataType returns the replicated data type.
func (c *Cluster) DataType() spec.DataType { return c.dt }

// Replica returns the i-th replica, for state inspection in tests.
func (c *Cluster) Replica(i int) *SimReplica { return c.replicas[i] }

// ConvergedState returns the common canonical local-state encoding of the
// serving replicas, or an error if they diverged (they must agree once the
// run is quiescent and all operations executed everywhere). Replicas that
// are not serving — crashed, retired, or stuck re-syncing — are not
// authoritative copies and are excluded; a cluster with no serving replica
// has no state to report. In a fault-free run every replica is serving, so
// this degrades to the all-replicas comparison.
func (c *Cluster) ConvergedState() (string, error) {
	ref := -1
	var enc string
	for i, r := range c.replicas {
		if r.LifecycleState() != StateServing {
			continue
		}
		got := r.LocalStateEncoding()
		if ref < 0 {
			ref, enc = i, got
			continue
		}
		if got != enc {
			return "", fmt.Errorf("core: replica %d state %q != replica %d state %q", i, got, ref, enc)
		}
	}
	if ref < 0 {
		return "", fmt.Errorf("core: no serving replica left to report a state")
	}
	return enc, nil
}

// State returns the copy ConvergedState reports — the first serving
// replica's — as a read-only view the run's next execution may change.
func (c *Cluster) State() (spec.State, error) {
	for _, r := range c.replicas {
		if r.LifecycleState() == StateServing {
			return r.exec.State(), nil
		}
	}
	return nil, fmt.Errorf("core: no serving replica left to report a state")
}

// MaxSkewOffsets returns clock offsets that realize the worst admissible
// skew for n processes under ε: process 0 at +ε/2, the rest at -ε/2…
// spread evenly. Useful for stress tests.
func MaxSkewOffsets(p model.Params) []model.Time {
	offs := make([]model.Time, p.N)
	if p.N < 2 {
		return offs
	}
	for i := range offs {
		// Evenly spaced in [-ε/2, +ε/2].
		offs[i] = -p.Epsilon/2 + model.Time(int64(p.Epsilon)*int64(i)/int64(p.N-1))
	}
	return offs
}
