package transport

import (
	"io"
	"sync"
	"time"

	"mascbgmp/internal/obs"
	"mascbgmp/internal/wire"
)

// Peer is an established peering session: a handshaken MsgConn with a
// background receive loop that dispatches inbound messages to a handler,
// optional keepalives, and hold-timer supervision.
//
// Peer is the shared session substrate for the BGP-lite, MASC, and BGMP
// speakers: all three run over persistent peerings between border routers.
type Peer struct {
	mc     *MsgConn
	local  wire.Open
	remote wire.Open

	handler func(*Peer, wire.Message)
	onClose func(*Peer, error)

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
	// Handler receives every inbound message except Keepalive, called
	// sequentially from the receive goroutine.
	Handler func(*Peer, wire.Message)
	// OnClose, if set, runs once when the session ends, with nil on
	// clean shutdown or the fatal error otherwise.
	OnClose func(*Peer, error)
	// KeepaliveEvery, if positive, sends Keepalive messages on that
	// period and requires inbound traffic at least every Local.HoldSecs
	// seconds (enforced via read deadlines). Zero disables both, which
	// suits in-process pipes.
	KeepaliveEvery time.Duration
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
	remote, err := Handshake(mc, cfg.Local)
	if err != nil {
		mc.Close()
		return nil, err
	}
	p := &Peer{
		mc:      mc,
		local:   cfg.Local,
		remote:  remote,
		handler: cfg.Handler,
		onClose: cfg.OnClose,
		out:     cfg.Out,
		in:      cfg.In,
		obs:     cfg.Obs,
		sent:    cfg.Obs.Counter(obs.TransportSent, cfg.Local.Domain, cfg.Local.Router),
		recv:    cfg.Obs.Counter(obs.TransportRecv, cfg.Local.Domain, cfg.Local.Router),
		done:    make(chan struct{}),
	}
	if cfg.KeepaliveEvery > 0 {
		go p.keepaliveLoop(cfg.KeepaliveEvery)
	}
	go p.readLoop(cfg.KeepaliveEvery > 0)
	return p, nil
}

// Remote returns the peer's Open message from the handshake.
func (p *Peer) Remote() wire.Open { return p.remote }

// Local returns this side's Open message.
func (p *Peer) Local() wire.Open { return p.local }

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

// Close terminates the session. The OnClose callback observes a nil error.
func (p *Peer) Close() error {
	p.finish(nil)
	return nil
}

// Done is closed when the session has fully terminated.
func (p *Peer) Done() <-chan struct{} { return p.done }

func (p *Peer) finish(err error) {
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
	if p.onClose != nil {
		p.onClose(p, err)
	}
	close(p.done)
}

func (p *Peer) readLoop(useHold bool) {
	for {
		if useHold && p.local.HoldSecs > 0 {
			_ = p.mc.SetReadDeadline(time.Now().Add(time.Duration(p.local.HoldSecs) * time.Second))
		}
		msg, err := p.mc.Read()
		if err != nil {
			if err == io.EOF {
				err = nil // clean remote close
			}
			p.finish(err)
			return
		}
		p.recv.Add(1)
		switch msg.(type) {
		case *wire.Keepalive:
			// refreshes the read deadline implicitly
			p.in.Handled()
		case *wire.Notification:
			if p.handler != nil {
				p.handler(p, msg)
			}
			p.in.Handled()
			p.finish(nil)
			return
		default:
			if p.handler != nil {
				p.handler(p, msg)
			}
			// Handled only after the handler returns: follow-up messages
			// the handler sent are already counted, so the tracker never
			// dips to zero mid-cascade.
			p.in.Handled()
		}
	}
}

func (p *Peer) keepaliveLoop(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-p.done:
			return
		case <-t.C:
			if err := p.Send(&wire.Keepalive{}); err != nil {
				p.finish(err)
				return
			}
		}
	}
}
