// Package baseline provides the two "folklore" linearizable implementations
// the paper compares against (Chapter I.A.3):
//
//   - Centralized: one coordinator process holds the object; every operation
//     is a request/response round trip, so the worst case is 2d.
//   - AllOOP: Algorithm 1 with every operation forced onto the totally
//     ordered OOP path (equivalent to a timestamp-based total order
//     broadcast), so every operation takes up to d+ε.
//
// Both are correct; they exist so the benchmarks can show where Algorithm
// 1's class-specific fast paths win.
package baseline

import (
	"timebounds/internal/history"
	"timebounds/internal/model"
	"timebounds/internal/sim"
	"timebounds/internal/spec"
)

// The tags of the centralized scheme's messages (sim.Msg.Tag).
const (
	// msgRequest is the client→coordinator message: the operation in Op,
	// Kind and Arg.
	msgRequest uint8 = iota + 1
	// msgResponse is the coordinator→client reply: the operation in Op,
	// its return value in Arg.
	msgResponse
)

// Centralized is one process of the centralized implementation. The process
// with id Coordinator owns the object; all others forward their operations
// to it.
type Centralized struct {
	// Coordinator is the object owner's process id.
	Coordinator model.ProcessID
	dt          spec.DataType
	state       spec.Owned
	order       history.ApplyOrder // the coordinator's apply order
}

var _ sim.Process = (*Centralized)(nil)

// NewCentralized builds one process of the centralized scheme. Only the
// coordinator's state is ever used.
func NewCentralized(coordinator model.ProcessID, dt spec.DataType) *Centralized {
	return &Centralized{Coordinator: coordinator, dt: dt, state: spec.NewOwned(dt)}
}

// OnInvoke implements sim.Process.
//
//tb:hotpath
func (c *Centralized) OnInvoke(env sim.Env, id history.OpID, kind spec.OpKind, arg spec.Value) {
	if env.Self() == c.Coordinator {
		env.Certify(id, c.order.Next(c.dt.Class(kind)))
		env.Respond(id, c.state.Apply(kind, arg))
		return
	}
	env.Send(c.Coordinator, sim.Msg{Tag: msgRequest, Op: id, Kind: kind, Arg: arg})
}

// OnMessage implements sim.Process.
//
//tb:hotpath
func (c *Centralized) OnMessage(env sim.Env, from model.ProcessID, m sim.Msg) {
	switch m.Tag {
	case msgRequest:
		env.Certify(m.Op, c.order.Next(c.dt.Class(m.Kind)))
		env.Send(from, sim.Msg{Tag: msgResponse, Op: m.Op, Arg: c.state.Apply(m.Kind, m.Arg)})
	case msgResponse:
		env.Respond(m.Op, m.Arg)
	}
}

// OnTimer implements sim.Process; the centralized scheme uses no timers.
func (c *Centralized) OnTimer(sim.Env, any) {}

// State returns the local copy as a read-only view the next operation may
// change; only the coordinator's is authoritative.
func (c *Centralized) State() spec.State { return c.state.State() }

// AllOOP wraps a data type so that every operation kind is classified as
// OOP. Running core.Replica over an AllOOP-wrapped type yields the folklore
// total-order-broadcast implementation: all operations respond in ≤ d+ε.
type AllOOP struct {
	// Inner is the wrapped data type.
	Inner spec.DataType
}

var (
	_ spec.DataType  = AllOOP{}
	_ spec.Unwrapper = AllOOP{}
)

// Unwrap implements spec.Unwrapper: only Class differs from Inner, so
// Inner's Fingerprinter and Mutator hold for the wrapper's states.
func (a AllOOP) Unwrap() spec.DataType { return a.Inner }

// Name implements spec.DataType.
func (a AllOOP) Name() string { return a.Inner.Name() + "-all-oop" }

// InitialState implements spec.DataType.
func (a AllOOP) InitialState() spec.State { return a.Inner.InitialState() }

// Apply implements spec.DataType.
func (a AllOOP) Apply(s spec.State, kind spec.OpKind, arg spec.Value) (spec.State, spec.Value) {
	return a.Inner.Apply(s, kind, arg)
}

// Kinds implements spec.DataType.
func (a AllOOP) Kinds() []spec.OpKind { return a.Inner.Kinds() }

// Class implements spec.DataType: everything is OOP.
func (a AllOOP) Class(spec.OpKind) spec.OpClass { return spec.ClassOther }

// EncodeState implements spec.DataType.
func (a AllOOP) EncodeState(s spec.State) string { return a.Inner.EncodeState(s) }
