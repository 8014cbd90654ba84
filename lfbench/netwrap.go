package main

import (
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"

	"labflow/internal/wire"
)

// tListener hands the wire server connections whose byte streams the
// traced pass parses into frames ([u32 length][tag][payload]), so each
// request becomes a span without touching the server: the server answers
// one connection's requests strictly in order, so request k is processed
// from the later of its arrival and response k-1's write until response k
// is written. Labbase calls the server makes meanwhile nest under it.
type tListener struct {
	net.Listener
	t *tracer

	mu    sync.Mutex
	conns []*tConn
}

func (l *tListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &tConn{Conn: c, t: l.t}
	l.mu.Lock()
	l.conns = append(l.conns, tc)
	l.mu.Unlock()
	return tc, nil
}

// bytes sums the traffic of every accepted connection so far.
func (l *tListener) bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	for _, c := range l.conns {
		n += c.bytes.Load()
	}
	return n
}

// frameCounter splits a byte stream into frames, reporting each frame's
// tag once its last byte has passed.
type frameCounter struct {
	hdr  [5]byte
	have int // header bytes seen of the current frame
	left int // payload bytes still to come after the header
}

func (f *frameCounter) feed(p []byte, done func(tag uint8)) {
	for len(p) > 0 {
		if f.have < 5 {
			k := copy(f.hdr[f.have:], p)
			f.have += k
			p = p[k:]
			if f.have < 5 {
				return
			}
			f.left = int(binary.LittleEndian.Uint32(f.hdr[:4])) - 1
		}
		k := min(f.left, len(p))
		f.left -= k
		p = p[k:]
		if f.left == 0 {
			done(f.hdr[4])
			f.have = 0
		}
	}
}

// tConn is one traced server-side connection. Only the connection's own
// server goroutine calls Read and Write, so no locking is needed.
type tConn struct {
	net.Conn
	t       *tracer
	in, out frameCounter
	queued  []uint8 // ops of requests that arrived and are not yet served
	cur     *openSpan
	bytes   atomic.Int64 // both directions
}

// wireSpanName classifies a request: wire.query runs the deductive engine,
// wire.read and wire.write are single store calls.
func wireSpanName(op uint8) string {
	switch op {
	case wire.OpQuery:
		return "wire.query"
	case wire.OpPutSteps, wire.OpRecordStep, wire.OpCreateMaterial, wire.OpSetState,
		wire.OpCreateSet, wire.OpBegin, wire.OpCommit, wire.OpDefineMaterialClass,
		wire.OpDefineAttr, wire.OpDefineStepClass, wire.OpDefineState:
		return "wire.write"
	case wire.OpHello:
		return "wire.hello"
	}
	return "wire.read"
}

func (c *tConn) startNext() {
	if c.cur == nil && len(c.queued) > 0 {
		c.cur = c.t.push(wireSpanName(c.queued[0]))
		c.queued = c.queued[1:]
	}
}

func (c *tConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	c.in.feed(p[:n], func(op uint8) { c.queued = append(c.queued, op) })
	c.startNext()
	return n, err
}

func (c *tConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	c.out.feed(p[:n], func(uint8) {
		if c.cur != nil {
			c.t.pop(c.cur)
			c.cur = nil
		}
		c.startNext()
	})
	return n, err
}

func (c *tConn) Close() error {
	if c.cur != nil {
		c.t.pop(c.cur)
		c.cur = nil
	}
	return c.Conn.Close()
}
