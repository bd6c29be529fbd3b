package live

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"timebounds/internal/core"
	"timebounds/internal/model"
)

// Message is the wire unit replicas exchange: either an estimator probe or
// one timestamped operation entry. Every message carries the sender's
// local clock at send time (SentAt), so the receiver can sample the
// one-way delay — the raw material of the online (u, d) estimator.
type Message struct {
	// From is the sending process.
	From model.ProcessID
	// SentAt is the sender's local clock when the message left it.
	SentAt model.Time
	// Probe marks an estimator warm-up probe carrying no operation.
	Probe bool
	// Entry is the broadcast operation (valid when !Probe).
	Entry core.Entry
}

// Transport connects the n replicas of one live cluster. Implementations
// must deliver every accepted message exactly once (no loss, no
// duplication); they may reorder freely — Algorithm 1's timestamp order
// absorbs reordering as long as the tuned waits cover the real delays.
type Transport interface {
	// Name is the transport's stable identifier for reports and labels.
	Name() string
	// Open connects n endpoints, one per process, ready to exchange
	// messages. The caller owns the endpoints and must Close each.
	Open(n int) ([]Endpoint, error)
}

// Endpoint is one process's attachment to the transport. Send must not
// block the caller (replicas send while holding their own lock); Recv
// yields inbound messages until Close.
type Endpoint interface {
	Send(to model.ProcessID, m Message) error
	Recv() <-chan Message
	Close() error
}

// inbox is an unbounded FIFO drained in order by its own pump goroutine,
// so a push never blocks the producer (senders may hold replica locks).
// An endpoint's inbox drains into its Recv channel; a TCP connection's
// into the socket. close lets the pump drain what is queued, then run its
// done action; a sink that fails drops the rest and runs done at once.
type inbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	q      []Message
	closed bool
	out    chan Message // the Recv channel of an endpoint's inbox
}

func newInbox() *inbox {
	b := &inbox{out: make(chan Message, 64)}
	b.start(func(m Message) bool { b.out <- m; return true }, func() { close(b.out) })
	return b
}

// start launches the pump, handing each message to sink.
func (b *inbox) start(sink func(Message) bool, done func()) {
	b.cond = sync.NewCond(&b.mu)
	go b.pump(sink, done)
}

func (b *inbox) push(m Message) {
	b.mu.Lock()
	if !b.closed {
		b.q = append(b.q, m)
		b.cond.Signal()
	}
	b.mu.Unlock()
}

func (b *inbox) close() {
	b.mu.Lock()
	b.closed = true
	b.cond.Signal()
	b.mu.Unlock()
}

func (b *inbox) pump(sink func(Message) bool, done func()) {
	defer done()
	for {
		b.mu.Lock()
		for len(b.q) == 0 && !b.closed {
			b.cond.Wait()
		}
		if len(b.q) == 0 {
			b.mu.Unlock()
			return
		}
		m := b.q[0]
		b.q = b.q[1:]
		b.mu.Unlock()
		if !sink(m) {
			b.mu.Lock()
			b.closed, b.q = true, nil
			b.mu.Unlock()
			return
		}
	}
}

// DelayFunc draws the synthetic one-way delay of the k-th message sent on
// the from→to link. Returning 0 delivers as fast as the scheduler allows.
type DelayFunc func(from, to model.ProcessID, k int) model.Time

// UniformDelay returns a seeded DelayFunc drawing delays uniformly from
// [min, max] — the live analogue of the simulator's random delay
// adversary. The draw sequence is deterministic given the seed, though
// the concurrent send order that consumes it is not.
func UniformDelay(seed int64, min, max model.Time) DelayFunc {
	if max < min {
		max = min
	}
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	return func(model.ProcessID, model.ProcessID, int) model.Time {
		mu.Lock()
		defer mu.Unlock()
		if max == min {
			return min
		}
		return min + model.Time(rng.Int63n(int64(max-min)+1))
	}
}

// FixedDelay returns a DelayFunc imposing the same delay on every message.
func FixedDelay(d model.Time) DelayFunc {
	return func(model.ProcessID, model.ProcessID, int) model.Time { return d }
}

// AlternatingDelay returns a DelayFunc alternating between lo and hi per
// link, the live analogue of the simulator's extremal adversary.
func AlternatingDelay(lo, hi model.Time) DelayFunc {
	return func(_, _ model.ProcessID, k int) model.Time {
		if k%2 == 0 {
			return hi
		}
		return lo
	}
}

// ChanTransport is the in-process transport: per-endpoint unbounded
// queues bridged by goroutines, with an optional synthetic delay policy.
// With a Delay policy drawn from the scenario's (d, u) envelope the
// in-process cluster has a known ground truth for the estimator to
// discover; without one, delivery latency is whatever the Go scheduler
// gives (microseconds on an idle host).
type ChanTransport struct {
	// Delay optionally imposes a synthetic one-way delay per message;
	// nil delivers immediately.
	Delay DelayFunc
}

// Name implements Transport.
func (t *ChanTransport) Name() string { return "chan" }

// Open implements Transport.
func (t *ChanTransport) Open(n int) ([]Endpoint, error) {
	if n < 1 {
		return nil, fmt.Errorf("live: chan transport needs n >= 1, got %d", n)
	}
	boxes := make([]*inbox, n)
	for i := range boxes {
		boxes[i] = newInbox()
	}
	eps := make([]Endpoint, n)
	counts := make([][]int, n)
	for i := range eps {
		counts[i] = make([]int, n)
		eps[i] = &chanEndpoint{self: model.ProcessID(i), tr: t, boxes: boxes, sent: counts[i]}
	}
	return eps, nil
}

type chanEndpoint struct {
	self  model.ProcessID
	tr    *ChanTransport
	boxes []*inbox
	mu    sync.Mutex
	sent  []int // per-destination message counter, guarded by mu
}

func (e *chanEndpoint) Send(to model.ProcessID, m Message) error {
	if int(to) < 0 || int(to) >= len(e.boxes) {
		return fmt.Errorf("live: send to unknown process %d", int(to))
	}
	box := e.boxes[to]
	var delay model.Time
	if e.tr.Delay != nil {
		e.mu.Lock()
		k := e.sent[to]
		e.sent[to]++
		e.mu.Unlock()
		delay = e.tr.Delay(e.self, to, k)
	}
	if delay <= 0 {
		box.push(m)
		return nil
	}
	time.AfterFunc(delay, func() { box.push(m) })
	return nil
}

func (e *chanEndpoint) Recv() <-chan Message { return e.boxes[e.self].out }

func (e *chanEndpoint) Close() error {
	e.boxes[e.self].close()
	return nil
}
