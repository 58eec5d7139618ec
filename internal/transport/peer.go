package transport

import (
	"sync"

	"mascbgmp/internal/obs"
	"mascbgmp/internal/wire"
)

// Peer is an established peering session: a handshaken MsgConn with a
// background receive loop that dispatches inbound messages to a handler.
// It does not supervise the session: whoever starts it does, on the
// network's clock (core/session.go, internal/liveness).
//
// Peer is the shared session substrate for the BGP-lite, MASC, and BGMP
// speakers: all three run over persistent peerings between border routers.
type Peer struct {
	mc *MsgConn

	handler func(*Peer, wire.Message)

	out, in *Flight
	obs     *obs.Observer
	sent    *obs.Counter
	recv    *obs.Counter

	mu     sync.Mutex
	closed bool // guarded by mu

	done chan struct{}
}

// PeerConfig configures StartPeer.
type PeerConfig struct {
	// Local identifies this speaker in the handshake.
	Local wire.Open
	// Handler receives every inbound message, called sequentially from
	// the receive goroutine.
	Handler func(*Peer, wire.Message)
	// Out and In account this session's two directed streams against a
	// Tracker for quiescence detection: Out is the stream this peer
	// writes, In the stream it reads (the remote side's Out). Nil
	// disables tracking.
	Out, In *Flight
	// Obs, if set, counts every message written and read on this session
	// (transport.sent / transport.recv), scoped by Local.Domain/Router.
	Obs *obs.Observer
}

// StartPeer performs the Open handshake on mc and starts the receive loop.
// On handshake failure the connection is closed.
func StartPeer(mc *MsgConn, cfg PeerConfig) (*Peer, error) {
	if _, err := Handshake(mc, cfg.Local); err != nil {
		mc.Close()
		return nil, err
	}
	p := &Peer{
		mc:      mc,
		handler: cfg.Handler,
		out:     cfg.Out,
		in:      cfg.In,
		obs:     cfg.Obs,
		sent:    cfg.Obs.Counter(obs.TransportSent, cfg.Local.Domain, cfg.Local.Router),
		recv:    cfg.Obs.Counter(obs.TransportRecv, cfg.Local.Domain, cfg.Local.Router),
		done:    make(chan struct{}),
	}
	go p.readLoop()
	return p, nil
}

// Send transmits msg to the peer.
func (p *Peer) Send(msg wire.Message) error {
	p.out.Sent()
	if err := p.mc.Write(msg); err != nil {
		p.out.Handled() // never entered the stream
		return err
	}
	p.sent.Add(1)
	return nil
}

// Close terminates the session.
func (p *Peer) Close() error {
	p.finish()
	return nil
}

// Done is closed when the session has fully terminated.
func (p *Peer) Done() <-chan struct{} { return p.done }

func (p *Peer) finish() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.mc.Close()
	// Messages still in transit on a dead session will never be handled;
	// release them so Quiesce cannot wedge.
	p.out.Close()
	p.in.Close()
	close(p.done)
}

func (p *Peer) readLoop() {
	for {
		msg, err := p.mc.Read()
		if err != nil {
			p.finish() // remote close or a poisoned stream: the session is over
			return
		}
		p.recv.Add(1)
		if p.handler != nil {
			p.handler(p, msg)
		}
		// Handled only after the handler returns: follow-up messages the
		// handler sent are already counted, so the tracker never dips to
		// zero mid-cascade.
		p.in.Handled()
	}
}
