// Package tob implements a sequencer-based total-order broadcast and a
// linearizable shared object on top of it. Chapter I.A.3 mentions this as
// the second folklore route to linearizability and observes that it "is not
// faster than the centralized scheme once the cost of implementing totally
// ordered broadcast over point-to-point messages is taken into account" —
// this package makes that observation measurable: a non-sequencer
// operation costs up to 2d (one hop to the sequencer, one ordered hop out),
// exactly like the centralized baseline and well above Algorithm 1.
//
// Protocol: process Sequencer assigns consecutive sequence numbers.
// A sender forwards its message to the sequencer; the sequencer stamps and
// rebroadcasts it (delivering locally in the same step); every process
// delivers stamped messages strictly in sequence-number order, buffering
// out-of-order arrivals.
package tob

import (
	"timebounds/internal/history"
	"timebounds/internal/model"
	"timebounds/internal/sim"
	"timebounds/internal/spec"
)

// The tags of total-order broadcast messages (sim.Msg.Tag). A process
// that embeds a Broadcaster tags its own messages otherwise.
const (
	// msgForward carries an unordered body from its sender, in Origin, to
	// the sequencer.
	msgForward uint8 = iota + 1
	// msgStamped carries a body with its global sequence number, in Seq.
	msgStamped
)

// Deliverer receives totally ordered deliveries.
type Deliverer interface {
	// Deliver is called exactly once per broadcast, in the same (sequence)
	// order at every process, with the body as broadcast, its sequence
	// number in m.Seq and its sender in m.Origin.
	Deliver(env sim.Env, m sim.Msg)
}

// Broadcaster is the total-order broadcast endpoint of one process. Embed
// it in a sim.Process and route OnMessage messages through HandleMessage.
type Broadcaster struct {
	// Self is this process's id.
	Self model.ProcessID
	// Sequencer is the id of the sequencing process.
	Sequencer model.ProcessID
	// Target receives ordered deliveries.
	Target Deliverer

	nextSeq   int64 // sequencer only: next sequence number to assign
	nextDeliv int64 // next sequence number to deliver locally
	// pending[head:] buffers out-of-order stamped messages sorted by Seq.
	// The head index (instead of reslicing the front off) keeps the
	// buffer's capacity, so the steady state of enqueue→drain reuses one
	// backing array instead of reallocating per message.
	pending []sim.Msg
	head    int
}

// Broadcast submits a body — the Op, Kind, Arg and Clock of body — for
// total ordering.
//
//tb:hotpath
func (b *Broadcaster) Broadcast(env sim.Env, body sim.Msg) {
	body.Origin = b.Self
	if b.Self == b.Sequencer {
		b.stampAndSend(env, body)
		return
	}
	body.Tag = msgForward
	env.Send(b.Sequencer, body)
}

// stampAndSend runs at the sequencer: assign the next number, rebroadcast,
// and deliver locally.
//
//tb:hotpath
func (b *Broadcaster) stampAndSend(env sim.Env, m sim.Msg) {
	m.Tag, m.Seq = msgStamped, b.nextSeq
	b.nextSeq++
	env.Broadcast(m)
	b.enqueue(env, m)
}

// HandleMessage routes a network message through the broadcast layer. It
// returns false if the message was not a TOB message (callers may then
// interpret it themselves).
//
//tb:hotpath
func (b *Broadcaster) HandleMessage(env sim.Env, m sim.Msg) bool {
	switch m.Tag {
	case msgForward:
		if b.Self != b.Sequencer {
			return false
		}
		b.stampAndSend(env, m)
		return true
	case msgStamped:
		b.enqueue(env, m)
		return true
	default:
		return false
	}
}

// enqueue buffers a stamped message and delivers every consecutive message
// starting at nextDeliv, in order. Insertion keeps pending[head:] sorted
// by sequence number (messages arrive nearly in order, so the shift is
// short), and a drained buffer is rewound to reuse its capacity. A copy
// of a message already delivered or buffered (a duplicating network) is
// dropped: buffered, it would block every later delivery.
//
//tb:hotpath
func (b *Broadcaster) enqueue(env sim.Env, m sim.Msg) {
	if m.Seq < b.nextDeliv {
		return
	}
	// Binary-search the insertion point in the sorted tail.
	lo, hi := b.head, len(b.pending)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.pending[mid].Seq < m.Seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(b.pending) && b.pending[lo].Seq == m.Seq {
		return
	}
	b.pending = append(b.pending, sim.Msg{})
	copy(b.pending[lo+1:], b.pending[lo:len(b.pending)-1])
	b.pending[lo] = m
	for b.head < len(b.pending) && b.pending[b.head].Seq == b.nextDeliv {
		next := b.pending[b.head]
		b.pending[b.head] = sim.Msg{} // drop the Arg reference
		b.head++
		b.nextDeliv++
		if b.head == len(b.pending) {
			b.pending = b.pending[:0]
			b.head = 0
		}
		b.Target.Deliver(env, next)
	}
}

// Object is a linearizable shared object built directly on total-order
// broadcast: every operation (regardless of class) is broadcast, applied
// in delivery order on every copy, and answered by its origin when the
// origin delivers it. It implements sim.Process.
type Object struct {
	bcast *Broadcaster
	dt    spec.DataType
	state spec.Owned
	// order keys each delivery by its place in the delivery order every
	// copy shares.
	order history.ApplyOrder
}

var _ sim.Process = (*Object)(nil)
var _ Deliverer = (*Object)(nil)

// NewObject builds the process with the given id; sequencer is the
// ordering process shared by the whole cluster.
func NewObject(self, sequencer model.ProcessID, dt spec.DataType) *Object {
	o := &Object{dt: dt, state: spec.NewOwned(dt)}
	o.bcast = &Broadcaster{Self: self, Sequencer: sequencer, Target: o}
	return o
}

// OnInvoke implements sim.Process: the operation is the broadcast body.
//
//tb:hotpath
func (o *Object) OnInvoke(env sim.Env, id history.OpID, kind spec.OpKind, arg spec.Value) {
	o.bcast.Broadcast(env, sim.Msg{Op: id, Kind: kind, Arg: arg})
}

// OnMessage implements sim.Process.
func (o *Object) OnMessage(env sim.Env, _ model.ProcessID, m sim.Msg) {
	o.bcast.HandleMessage(env, m)
}

// OnTimer implements sim.Process; the TOB object uses no timers.
func (o *Object) OnTimer(sim.Env, any) {}

// Deliver implements Deliverer: apply in order; the origin certifies the
// operation's place in the delivery order and responds.
//
//tb:hotpath
func (o *Object) Deliver(env sim.Env, m sim.Msg) {
	cert := o.order.Next(o.dt.Class(m.Kind))
	ret := o.state.Apply(m.Kind, m.Arg)
	if m.Origin == env.Self() {
		env.Certify(m.Op, cert)
		env.Respond(m.Op, ret)
	}
}

// State returns the local copy as a read-only view the next delivery may
// change.
func (o *Object) State() spec.State { return o.state.State() }
