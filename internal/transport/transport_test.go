package transport

import (
	"errors"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/wire"
)

func TestMsgConnRoundTripOverPipe(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()

	want := &wire.Claim{Claimer: 9, ClaimID: 77, Prefix: addr.MustParsePrefix("228.0.0.0/22"), LifeSecs: 60}
	go func() {
		if err := a.Write(want); err != nil {
			t.Error(err)
		}
	}()
	got, err := b.Read()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %#v, want %#v", got, want)
	}
}

// TestReadAllocatesOnlyTheMessage: Read parses each frame in the buffer the
// connection keeps — wire.Decode copies out of it — so once that has grown to
// the frame size a data packet costs the decoded message and its payload and
// nothing for the frame.
func TestReadAllocatesOnlyTheMessage(t *testing.T) {
	for _, size := range []int{64, 1400} {
		a, b := Pipe()
		msg := &wire.Data{Group: addr.MakeAddr(224, 1, 2, 3), Source: addr.MakeAddr(10, 0, 0, 1), TTL: 16, Payload: make([]byte, size)}
		next, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for range next {
				if err := a.Write(msg); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		got := testing.AllocsPerRun(100, func() {
			next <- struct{}{}
			m, err := b.Read()
			if err != nil || len(m.(*wire.Data).Payload) != size {
				t.Fatalf("Read = %v, %v", m, err)
			}
		})
		close(next)
		<-done
		a.Close()
		b.Close()
		if got != 2 {
			t.Errorf("%d B data packet: %v allocations per Read, want 2 (the message, its payload)", size, got)
		}
	}
}

func TestMsgConnManyMessagesOrdered(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()

	const n = 200
	go func() {
		for i := 0; i < n; i++ {
			if err := a.Write(&wire.GroupJoin{Group: addr.Addr(0xe0000000 + i)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		msg, err := b.Read()
		if err != nil {
			t.Fatal(err)
		}
		gj, ok := msg.(*wire.GroupJoin)
		if !ok || gj.Group != addr.Addr(0xe0000000+i) {
			t.Fatalf("message %d: %#v", i, msg)
		}
	}
}

func TestMsgConnConcurrentWriters(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()

	const writers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := a.Write(&wire.GroupJoin{Group: addr.MakeAddr(224, 9, 9, 9)}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	got := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for got < writers*per {
			if _, err := b.Read(); err != nil {
				t.Error(err)
				return
			}
			got++
		}
	}()
	wg.Wait()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("reader did not drain all messages")
	}
	if got != writers*per {
		t.Fatalf("read %d messages, want %d", got, writers*per)
	}
}

func TestMsgConnOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	done := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		mc := NewMsgConn(c)
		defer mc.Close()
		msg, err := mc.Read()
		if err != nil {
			done <- err
			return
		}
		done <- mc.Write(msg) // echo
	}()

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	mc := NewMsgConn(c)
	defer mc.Close()
	want := &wire.Data{Group: addr.MakeAddr(224, 1, 2, 3), Source: addr.MakeAddr(10, 0, 0, 1), TTL: 16, Payload: []byte("payload over tcp")}
	if err := mc.Write(want); err != nil {
		t.Fatal(err)
	}
	got, err := mc.Read()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("echo mismatch: %#v", got)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestMsgConnReadAfterClose(t *testing.T) {
	a, b := Pipe()
	b.Close()
	a.Close()
	if _, err := a.Read(); err == nil {
		t.Fatal("read on closed conn should fail")
	}
	if err := a.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
		t.Fatalf("double close: %v", err)
	}
}

func TestMsgConnRejectsGarbageStream(t *testing.T) {
	ca, cb := net.Pipe()
	mc := NewMsgConn(ca)
	defer mc.Close()
	go func() {
		cb.Write([]byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4})
		cb.Close()
	}()
	if _, err := mc.Read(); !errors.Is(err, wire.ErrBadMagic) {
		t.Fatalf("garbage stream: %v", err)
	}
}

func TestMsgConnRejectsTruncatedFrame(t *testing.T) {
	ca, cb := net.Pipe()
	mc := NewMsgConn(ca)
	defer mc.Close()
	go func() {
		// Valid header claiming 10-byte payload, then only 3 bytes.
		cb.Write([]byte{0x4D, 0x42, wire.Version, byte(wire.TypeGroupJoin), 0, 0, 0, 10, 1, 2, 3})
		cb.Close()
	}()
	if _, err := mc.Read(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame: %v", err)
	}
}

func TestHandshake(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()

	openA := wire.Open{Router: 1, Domain: 10}
	openB := wire.Open{Router: 2, Domain: 20}
	var remoteAtA wire.Open
	var errA error
	done := make(chan struct{})
	go func() {
		remoteAtA, errA = Handshake(a, openA)
		close(done)
	}()
	remoteAtB, err := Handshake(b, openB)
	<-done
	if err != nil || errA != nil {
		t.Fatalf("handshake errors: %v, %v", err, errA)
	}
	if remoteAtA != openB || remoteAtB != openA {
		t.Fatalf("handshake identities wrong: %v / %v", remoteAtA, remoteAtB)
	}
}

func TestHandshakeRejectsNonOpen(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	go b.Write(&wire.GroupJoin{Group: addr.MakeAddr(224, 9, 9, 9)})
	if _, err := Handshake(a, wire.Open{Router: 1}); !errors.Is(err, ErrHandshake) {
		t.Fatalf("want handshake error, got %v", err)
	}
}

func startPeerPair(t *testing.T, hA, hB func(*Peer, wire.Message)) (*Peer, *Peer) {
	t.Helper()
	a, b := Pipe()
	var pa, pb *Peer
	var ea, eb error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		pa, ea = StartPeer(a, PeerConfig{Local: wire.Open{Router: 1, Domain: 10}, Handler: hA})
	}()
	go func() {
		defer wg.Done()
		pb, eb = StartPeer(b, PeerConfig{Local: wire.Open{Router: 2, Domain: 20}, Handler: hB})
	}()
	wg.Wait()
	if ea != nil || eb != nil {
		t.Fatalf("StartPeer: %v / %v", ea, eb)
	}
	t.Cleanup(func() { pa.Close(); pb.Close() })
	return pa, pb
}

func TestPeerDispatch(t *testing.T) {
	got := make(chan wire.Message, 1)
	pa, _ := startPeerPair(t, nil, func(_ *Peer, m wire.Message) { got <- m })
	want := &wire.GroupJoin{Group: addr.MakeAddr(224, 9, 9, 9)}
	if err := pa.Send(want); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if !reflect.DeepEqual(m, want) {
			t.Fatalf("got %#v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handler never saw the message")
	}
}

func TestPeerRemoteCloseEndsSession(t *testing.T) {
	pa, pb := startPeerPair(t, nil, nil)
	pb.Close()
	select {
	case <-pa.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("peer A never noticed remote close")
	}
}

func TestPeerSendAfterCloseErrors(t *testing.T) {
	pa, pb := startPeerPair(t, nil, nil)
	pa.Close()
	<-pa.Done()
	if err := pa.Send(&wire.GroupJoin{Group: addr.MakeAddr(224, 9, 9, 9)}); err == nil {
		t.Fatal("send on closed session should error")
	}
	pb.Close()
}
