// Package transport carries wire messages between border routers over
// stream connections.
//
// BGP and BGMP peers "establish TCP peerings with each other to exchange
// routing information" (paper §2, §5.2). MsgConn wraps any net.Conn — a
// real TCP connection in cmd/bgmpd, a net.Pipe in tests and in-process
// networks — with the 8-byte frame header from package wire, a read loop
// friendly to incremental streams, and a write path safe for concurrent
// use.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"mascbgmp/internal/wire"
)

// MsgConn is a framed message connection. It is safe for one concurrent
// reader plus any number of concurrent writers.
type MsgConn struct {
	conn net.Conn
	br   *bufio.Reader
	// rbuf holds the frame Read is parsing (wire.Decode copies out of it). No
	// lock: one goroutine reads, Handshake's Read returning before readLoop starts.
	rbuf []byte

	wmu  sync.Mutex
	wbuf []byte // guarded by wmu

	closeOnce sync.Once
	closeErr  error
}

// NewMsgConn wraps conn. The caller must not read from or write to conn
// directly afterwards.
func NewMsgConn(conn net.Conn) *MsgConn {
	return &MsgConn{conn: conn, br: bufio.NewReaderSize(conn, 32*1024), rbuf: make([]byte, wire.HeaderSize)}
}

// Pipe returns two MsgConns connected back-to-back in memory, for tests and
// single-process networks.
func Pipe() (*MsgConn, *MsgConn) {
	a, b := net.Pipe()
	return NewMsgConn(a), NewMsgConn(b)
}

// Write frames and sends msg. It is safe for concurrent use.
func (mc *MsgConn) Write(msg wire.Message) error {
	mc.wmu.Lock()
	defer mc.wmu.Unlock()
	mc.wbuf = wire.AppendFrame(mc.wbuf[:0], msg)
	_, err := mc.conn.Write(mc.wbuf)
	if err != nil {
		return fmt.Errorf("transport: write %v: %w", msg.Type(), err)
	}
	return nil
}

// Read blocks for the next message. On connection close it returns io.EOF
// (possibly wrapped); on any framing error the connection is poisoned and
// should be closed.
func (mc *MsgConn) Read() (wire.Message, error) {
	hdr := mc.rbuf[:wire.HeaderSize]
	if _, err := io.ReadFull(mc.br, hdr); err != nil {
		return nil, err
	}
	if binary.BigEndian.Uint16(hdr) != wire.Magic {
		return nil, wire.ErrBadMagic
	}
	if hdr[2] != wire.Version && hdr[2] != wire.TraceVersion {
		return nil, wire.ErrBadVersion
	}
	n := binary.BigEndian.Uint32(hdr[4:])
	if n > wire.MaxPayload {
		return nil, wire.ErrBadLength
	}
	size := wire.HeaderSize + int(n)
	if cap(mc.rbuf) < size {
		mc.rbuf = append(make([]byte, 0, size), hdr...)
	}
	frame := mc.rbuf[:size]
	if _, err := io.ReadFull(mc.br, frame[wire.HeaderSize:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return wire.Decode(frame)
}

// Close closes the underlying connection. It is idempotent.
func (mc *MsgConn) Close() error {
	mc.closeOnce.Do(func() { mc.closeErr = mc.conn.Close() })
	return mc.closeErr
}

// ErrHandshake is returned when the peer's first message is not a valid
// Open.
var ErrHandshake = errors.New("transport: handshake failed")

// Handshake exchanges Open messages: it sends local and waits for the
// peer's Open, which it returns. Both sides may call it concurrently.
func Handshake(mc *MsgConn, local wire.Open) (wire.Open, error) {
	errc := make(chan error, 1)
	go func() { errc <- mc.Write(&local) }()
	msg, err := mc.Read()
	if err != nil {
		return wire.Open{}, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	remote, ok := msg.(*wire.Open)
	if !ok {
		return wire.Open{}, fmt.Errorf("%w: first message was %v", ErrHandshake, msg.Type())
	}
	if err := <-errc; err != nil {
		return wire.Open{}, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	return *remote, nil
}
