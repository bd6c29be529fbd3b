package live

import (
	"encoding/gob"
	"fmt"
	"net"

	"timebounds/internal/model"
)

func init() {
	// The repo's data types carry these concrete types in spec.Value
	// payloads; the gob stream must know them to move an `any` field.
	RegisterWireValue(int(0))
	RegisterWireValue(int64(0))
	RegisterWireValue(uint64(0))
	RegisterWireValue(float64(0))
	RegisterWireValue("")
	RegisterWireValue(false)
	RegisterWireValue([]byte(nil))
}

// RegisterWireValue registers a concrete operation argument/return type
// with the TCP transport's gob wire format. The basic Go scalar types are
// pre-registered; a custom spec.DataType whose Values are structs must
// register them before Open.
func RegisterWireValue(v any) { gob.Register(v) }

// TCPTransport connects the replicas over loopback TCP: each endpoint
// owns one listener on 127.0.0.1 and a dialed connection to every peer,
// with gob framing and a per-connection writer goroutine so Send never
// blocks the caller. Delays are whatever the kernel's loopback path
// gives — this is the transport where the estimator meets a stack it
// does not control.
type TCPTransport struct{}

// Name implements Transport.
func (t *TCPTransport) Name() string { return "tcp" }

// Open implements Transport.
func (t *TCPTransport) Open(n int) ([]Endpoint, error) {
	if n < 1 {
		return nil, fmt.Errorf("live: tcp transport needs n >= 1, got %d", n)
	}
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	fail := func(err error) ([]Endpoint, error) {
		for _, ln := range listeners {
			if ln != nil {
				_ = ln.Close()
			}
		}
		return nil, err
	}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(fmt.Errorf("live: tcp listen: %w", err))
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	tcpEps := make([]*tcpEndpoint, n)
	eps := make([]Endpoint, n)
	for i := 0; i < n; i++ {
		e := &tcpEndpoint{ln: listeners[i], box: newInbox(), conns: make([]*inbox, n)}
		tcpEps[i] = e
		eps[i] = e
		go e.acceptLoop()
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			c, err := net.Dial("tcp", addrs[j])
			if err != nil {
				for _, e := range tcpEps {
					_ = e.Close()
				}
				return nil, fmt.Errorf("live: tcp dial %s: %w", addrs[j], err)
			}
			tcpEps[i].conns[j] = newTCPConn(c)
		}
	}
	return eps, nil
}

type tcpEndpoint struct {
	ln    net.Listener
	box   *inbox
	conns []*inbox // outbound, indexed by destination; nil at self
}

func (e *tcpEndpoint) acceptLoop() {
	for {
		c, err := e.ln.Accept()
		if err != nil {
			return
		}
		go func() {
			defer c.Close()
			dec := gob.NewDecoder(c)
			for {
				var m Message
				if err := dec.Decode(&m); err != nil {
					return
				}
				e.box.push(m)
			}
		}()
	}
}

func (e *tcpEndpoint) Send(to model.ProcessID, m Message) error {
	if int(to) < 0 || int(to) >= len(e.conns) || e.conns[to] == nil {
		return fmt.Errorf("live: tcp send to unknown process %d", int(to))
	}
	e.conns[to].push(m)
	return nil
}

func (e *tcpEndpoint) Recv() <-chan Message { return e.box.out }

func (e *tcpEndpoint) Close() error {
	err := e.ln.Close()
	for _, c := range e.conns {
		if c != nil {
			c.close()
		}
	}
	e.box.close()
	return err
}

// newTCPConn returns one outbound connection: an inbox whose pump
// gob-encodes onto the socket, so replicas sending under their own lock
// never block on the kernel's send buffer.
func newTCPConn(c net.Conn) *inbox {
	enc := gob.NewEncoder(c)
	b := &inbox{}
	b.start(func(m Message) bool { return enc.Encode(&m) == nil }, func() { _ = c.Close() })
	return b
}
