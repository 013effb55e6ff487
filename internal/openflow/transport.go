package openflow

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"time"

	"livesec/internal/sim"
)

// Conn is one side of an OpenFlow secure channel. Implementations deliver
// whole messages; Send never blocks the caller on peer processing.
//
// Ownership: Send and SendBatch encode before they return and keep
// neither the messages nor any slice they hold, so a caller may reuse
// both at once (the controller's per-setup emitter does). A *FlowMod or
// *PacketOut that the simulated transport (SimPipe) hands to a handler
// is the receiving end's reused value: it is valid only during that
// call, and a handler that keeps any of it keeps a copy. Every other
// message a handler receives is its own.
type Conn interface {
	// Send transmits a message to the peer.
	Send(m Message)
	// SendBatch transmits the messages back to back. They arrive in
	// order, framed as a single stream write on the underlying
	// transport. An empty batch is a no-op.
	SendBatch(ms []Message)
	// SetHandler registers the receive callback. It must be called before
	// the first message arrives; messages delivered with no handler are
	// dropped.
	SetHandler(fn func(Message))
	// Close tears the channel down. Further Sends are ignored.
	Close() error
}

// SendAll transmits the messages through c in one batched write.
func SendAll(c Conn, ms ...Message) { c.SendBatch(ms) }

// bufPool recycles the sim transport's encode buffers, each from its
// batch's send to the end of its delivery. Decode copies every byte slice
// it keeps; a FlowMod or PacketOut decoded into the receiver's reused
// values aliases the buffer only until the handler returns (Conn).
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// simConn is a secure channel endpoint inside the discrete-event
// simulator. Messages are truly encoded to bytes and re-decoded at the
// receiver so the wire codec is on the path of every simulated exchange.
type simConn struct {
	eng     *sim.Engine
	latency time.Duration
	peer    *simConn
	handler func(Message)
	closed  bool
	// inflight holds the batches sent and not yet delivered: each is due
	// latency after its send, so they fall due in send order.
	inflight *sim.Pipe[*[]byte]
	rx       reused // what the peer's flow mods and packet-outs decode into
}

// SimPipe creates a connected pair of simulated secure-channel endpoints
// with the given one-way control latency.
func SimPipe(eng *sim.Engine, latency time.Duration) (Conn, Conn) {
	latency = max(latency, 0) // as Engine.Schedule treats a negative delay
	a := &simConn{eng: eng, latency: latency}
	b := &simConn{eng: eng, latency: latency}
	a.peer, b.peer = b, a
	a.inflight, b.inflight = sim.NewPipe(eng, a.deliver), sim.NewPipe(eng, b.deliver)
	return a, b
}

// Send is a batch of one.
func (c *simConn) Send(m Message) { c.SendBatch([]Message{m}) }

// SendBatch encodes the messages into one buffer and delivers them with
// a single scheduled event, so a multi-switch flow setup costs one
// transport write per switch. Messages share the batch's arrival time
// and are handed to the peer in order — identical virtual timing to N
// consecutive Sends, which the simulator delivers at the same timestamp
// in insertion order.
func (c *simConn) SendBatch(ms []Message) {
	if c.closed || len(ms) == 0 {
		return
	}
	bp := bufPool.Get().(*[]byte)
	data := (*bp)[:0]
	for _, m := range ms {
		data = MarshalAppend(data, m)
	}
	*bp = data
	c.inflight.At(c.eng.Now()+c.latency, bp)
}

// deliver hands one batch c sent to the peer's handler, message by
// message, and gives its buffer back to the pool.
func (c *simConn) deliver(bp *[]byte) {
	defer func() { *bp = (*bp)[:0]; bufPool.Put(bp) }()
	peer := c.peer
	if peer.closed || peer.handler == nil {
		return
	}
	for rest := *bp; len(rest) >= headerLen; {
		length := int(binary.BigEndian.Uint16(rest[2:4]))
		if length < headerLen || length > len(rest) {
			panic("openflow: sim transport batch framing")
		}
		msg, err := decode(rest[:length], &peer.rx)
		if err != nil {
			// A decode failure here is a codec bug; surface it loudly
			// in simulation rather than silently dropping.
			panic(fmt.Sprintf("openflow: sim transport decode: %v", err))
		}
		peer.handler(msg)
		if peer.closed {
			return
		}
		rest = rest[length:]
	}
}

func (c *simConn) SetHandler(fn func(Message)) { c.handler = fn }

func (c *simConn) Close() error {
	c.closed = true
	return nil
}

// ReadMessage reads exactly one framed message from r.
func ReadMessage(r io.Reader) (Message, error) {
	var scratch []byte
	return readMessageBuf(r, &scratch)
}

// readMessageBuf reads one framed message, reusing *scratch as the frame
// buffer (growing it as needed, keeping the header read into it). Safe
// because Decode copies every byte slice it retains.
func readMessageBuf(r io.Reader, scratch *[]byte) (Message, error) {
	if cap(*scratch) < headerLen {
		*scratch = make([]byte, headerLen)
	}
	hdr := (*scratch)[:headerLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	length := int(binary.BigEndian.Uint16(hdr[2:4]))
	if length < headerLen {
		return nil, ErrTruncated
	}
	if cap(*scratch) < length {
		buf := make([]byte, length)
		copy(buf, hdr)
		*scratch = buf
	}
	buf := (*scratch)[:length]
	if _, err := io.ReadFull(r, buf[headerLen:]); err != nil {
		return nil, err
	}
	return Decode(buf)
}

// netConn adapts a real stream (e.g. *net.TCPConn) to Conn. A reader
// goroutine decodes messages and invokes the handler; writes are
// serialized with a mutex, and each Send or SendBatch is one Write of the
// stream. Used by cmd/livesecd for TCP deployments.
type netConn struct {
	rwc  io.ReadWriteCloser
	wmu  sync.Mutex
	wbuf []byte // encode scratch, guarded by wmu

	hmu     sync.Mutex
	handler func(Message)
	started bool

	closeOnce sync.Once
	done      chan struct{}
}

// NewNetConn wraps a byte stream as an OpenFlow channel. The reader loop
// starts when SetHandler is called.
func NewNetConn(rwc io.ReadWriteCloser) Conn {
	return &netConn{rwc: rwc, done: make(chan struct{})}
}

// Send is a batch of one.
func (c *netConn) Send(m Message) { c.SendBatch([]Message{m}) }

// SendBatch encodes the messages into the connection's scratch buffer
// and emits them as one write, holding the write lock once.
func (c *netConn) SendBatch(ms []Message) {
	if len(ms) == 0 {
		return
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = c.wbuf[:0]
	for _, m := range ms {
		c.wbuf = MarshalAppend(c.wbuf, m)
	}
	_, _ = c.rwc.Write(c.wbuf)
}

func (c *netConn) SetHandler(fn func(Message)) {
	c.hmu.Lock()
	c.handler = fn
	start := !c.started
	c.started = true
	c.hmu.Unlock()
	if start {
		go c.readLoop()
	}
}

func (c *netConn) readLoop() {
	br := bufio.NewReader(c.rwc)
	var scratch []byte // reused across messages; Decode clones retained data
	for {
		m, err := readMessageBuf(br, &scratch)
		if err != nil {
			_ = c.Close()
			return
		}
		c.hmu.Lock()
		h := c.handler
		c.hmu.Unlock()
		if h != nil {
			h(m)
		}
	}
}

func (c *netConn) Close() error {
	var err error
	c.closeOnce.Do(func() {
		close(c.done)
		err = c.rwc.Close()
	})
	return err
}

// Done is closed once the connection closes; livesecd's close watcher
// waits on it to deregister the switch.
func (c *netConn) Done() <-chan struct{} { return c.done }
