// Package wire defines the binary message formats spoken between border
// routers in the MASC/BGMP architecture: BGP-lite session and update
// messages (carrying group routes for the G-RIB and multicast routes for
// the M-RIB), MASC claim/collision messages, and BGMP join/prune/data
// messages.
//
// Every message is framed as
//
//	magic   uint16  0x4D42 ("MB")
//	version uint8   1
//	type    uint8   MsgType
//	length  uint32  payload length in bytes (excludes this 8-byte header)
//	payload length bytes
//
// in big-endian byte order. Messages implement the Message interface with
// gopacket-style AppendPayload/DecodePayload codecs; Encode and Decode
// handle the frame.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"mascbgmp/internal/addr"
)

// Protocol framing constants.
const (
	Magic      = 0x4D42 // "MB"
	Version    = 1
	HeaderSize = 8
	// TraceVersion marks a frame whose payload is preceded by a
	// TraceBlockSize-byte trace block (trace ID, span ID, root start).
	// Untraced messages keep emitting Version frames byte-for-byte, so
	// tracing is free when off.
	TraceVersion   = 2
	TraceBlockSize = 24
	// MaxPayload bounds a frame's payload so a corrupt length field cannot
	// force an unbounded allocation.
	MaxPayload = 1 << 20
)

// MsgType discriminates the message carried in a frame.
type MsgType uint8

// Message type codes. The numeric ranges group the sub-protocols: 0x1x
// BGP-lite, 0x2x MASC, 0x3x BGMP.
const (
	TypeInvalid      MsgType = 0x00
	TypeOpen         MsgType = 0x10
	TypeUpdate       MsgType = 0x12
	TypeLiveness     MsgType = 0x14
	TypeClaim        MsgType = 0x20
	TypeCollision    MsgType = 0x21
	TypeRelease      MsgType = 0x22
	TypeRangeAdvert  MsgType = 0x23
	TypeGroupJoin    MsgType = 0x30
	TypeGroupPrune   MsgType = 0x31
	TypeSourceJoin   MsgType = 0x32
	TypeSourcePrune  MsgType = 0x33
	TypeData         MsgType = 0x34
	TypeMemberReport MsgType = 0x35
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case TypeOpen:
		return "OPEN"
	case TypeUpdate:
		return "UPDATE"
	case TypeLiveness:
		return "LIVENESS"
	case TypeClaim:
		return "CLAIM"
	case TypeCollision:
		return "COLLISION"
	case TypeRelease:
		return "RELEASE"
	case TypeRangeAdvert:
		return "RANGE-ADVERT"
	case TypeGroupJoin:
		return "GROUP-JOIN"
	case TypeGroupPrune:
		return "GROUP-PRUNE"
	case TypeSourceJoin:
		return "SOURCE-JOIN"
	case TypeSourcePrune:
		return "SOURCE-PRUNE"
	case TypeData:
		return "DATA"
	case TypeMemberReport:
		return "MEMBER-REPORT"
	}
	return fmt.Sprintf("MsgType(0x%02x)", uint8(t))
}

// Message is a protocol message that can be framed by Encode and recovered
// by Decode.
type Message interface {
	// Type returns the frame type code.
	Type() MsgType
	// AppendPayload appends the encoded payload to b and returns the
	// extended slice.
	AppendPayload(b []byte) []byte
	// DecodePayload parses the payload, which must be consumed entirely.
	DecodePayload(b []byte) error
}

// Errors returned by Decode and the payload codecs.
var (
	ErrShortFrame  = errors.New("wire: frame shorter than header")
	ErrBadMagic    = errors.New("wire: bad magic")
	ErrBadVersion  = errors.New("wire: unsupported version")
	ErrBadLength   = errors.New("wire: length field exceeds limits or frame")
	ErrUnknownType = errors.New("wire: unknown message type")
	ErrTruncated   = errors.New("wire: truncated payload")
	ErrTrailing    = errors.New("wire: trailing bytes after payload")
)

// Encode frames msg into a fresh byte slice.
func Encode(msg Message) []byte {
	return AppendFrame(nil, msg)
}

// AppendFrame appends the framed encoding of msg to b. A message carrying
// a nonzero trace context is emitted as a TraceVersion frame with the
// trace block between header and payload (the block counts toward the
// length field); everything else stays a classic Version frame.
func AppendFrame(b []byte, msg Message) []byte {
	ctx := ContextOf(msg)
	ver := byte(Version)
	if !ctx.Zero() {
		ver = TraceVersion
	}
	start := len(b)
	b = append(b, 0, 0, ver, byte(msg.Type()), 0, 0, 0, 0)
	binary.BigEndian.PutUint16(b[start:], Magic)
	if ver == TraceVersion {
		b = appendU64(b, ctx.Trace)
		b = appendU64(b, ctx.Span)
		b = appendU64(b, ctx.Start)
	}
	b = msg.AppendPayload(b)
	binary.BigEndian.PutUint32(b[start+4:], uint32(len(b)-start-HeaderSize))
	return b
}

// Decode parses one frame from b, which must contain exactly one frame.
// Decode copies: the message holds no reference into b, so the caller may
// reuse the frame buffer as soon as Decode returns.
func Decode(b []byte) (Message, error) {
	msg, rest, err := decodeNext(b, nil)
	if err == nil && len(rest) != 0 {
		return nil, ErrTrailing
	}
	return msg, err
}

// DecodeInto is Decode into msg, a message of the frame's type whose contents
// it overwrites (unspecified after an error). A Data that has held a packet as
// large allocates nothing, and still holds no reference into b.
func DecodeInto(b []byte, msg Message) error {
	if _, rest, err := decodeNext(b, msg); err != nil || len(rest) == 0 {
		return err
	}
	return ErrTrailing
}

// DecodeNext parses the first frame in b and returns the remainder, so a
// byte stream of concatenated frames can be consumed incrementally.
func DecodeNext(b []byte) (Message, []byte, error) { return decodeNext(b, nil) }

// decodeNext is DecodeNext into msg, or a new message when msg is nil.
func decodeNext(b []byte, msg Message) (Message, []byte, error) {
	if len(b) < HeaderSize {
		return nil, b, ErrShortFrame
	}
	if binary.BigEndian.Uint16(b) != Magic {
		return nil, b, ErrBadMagic
	}
	if b[2] != Version && b[2] != TraceVersion {
		return nil, b, ErrBadVersion
	}
	t := MsgType(b[3])
	n := binary.BigEndian.Uint32(b[4:])
	if n > MaxPayload || uint64(HeaderSize)+uint64(n) > uint64(len(b)) {
		return nil, b, ErrBadLength
	}
	if msg == nil {
		msg = newMessage(t)
	} else if msg.Type() != t {
		return nil, b, fmt.Errorf("wire: %v frame decoded into a %v", t, msg.Type())
	}
	if msg == nil {
		return nil, b, fmt.Errorf("%w: 0x%02x", ErrUnknownType, uint8(t))
	}
	payload := b[HeaderSize : HeaderSize+int(n)]
	var ctx TraceContext
	if b[2] == TraceVersion {
		if n < TraceBlockSize {
			return nil, b, ErrBadLength
		}
		ctx.Trace = binary.BigEndian.Uint64(payload)
		ctx.Span = binary.BigEndian.Uint64(payload[8:])
		ctx.Start = binary.BigEndian.Uint64(payload[16:])
		payload = payload[TraceBlockSize:]
		// AppendFrame writes the block only for a message that carries a
		// nonzero context; any other would not survive re-encoding.
		if carrier(msg) == nil || ctx.Zero() {
			return nil, b, fmt.Errorf("%w: trace block with no context to carry", ErrBadVersion)
		}
	}
	if err := msg.DecodePayload(payload); err != nil {
		return nil, b, err
	}
	Stamp(msg, ctx)
	return msg, b[HeaderSize+int(n):], nil
}

// newMessage returns a zero message of the given type, or nil when the type
// is unknown.
func newMessage(t MsgType) Message {
	switch t {
	case TypeOpen:
		return &Open{}
	case TypeUpdate:
		return &Update{}
	case TypeLiveness:
		return &LivenessCtl{}
	case TypeClaim:
		return &Claim{}
	case TypeCollision:
		return &Collision{}
	case TypeRelease:
		return &Release{}
	case TypeRangeAdvert:
		return &RangeAdvert{}
	case TypeGroupJoin:
		return &GroupJoin{}
	case TypeGroupPrune:
		return &GroupPrune{}
	case TypeSourceJoin:
		return &SourceJoin{}
	case TypeSourcePrune:
		return &SourcePrune{}
	case TypeData:
		return &Data{}
	case TypeMemberReport:
		return &MemberReport{}
	}
	return nil
}

// reader is a bounds-checked big-endian payload cursor.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = ErrTruncated
	}
}

func (r *reader) u8() uint8 {
	if r.err != nil || len(r.b) < 1 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *reader) u16() uint16 {
	if r.err != nil || len(r.b) < 2 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(r.b)
	r.b = r.b[2:]
	return v
}

// count reads a u16 element count and fails the decode when that many
// elements of at least size bytes each cannot fit in what is left, so the
// caller may allocate the count it gets.
func (r *reader) count(size int) int {
	n := int(r.u16())
	if n*size > len(r.b) {
		r.fail()
		return 0
	}
	return n
}

func (r *reader) u32() uint32 {
	if r.err != nil || len(r.b) < 4 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *reader) addr() addr.Addr { return addr.Addr(r.u32()) }

func (r *reader) prefix() addr.Prefix {
	p := addr.Prefix{Base: r.addr(), Len: int(r.u8())}
	if r.err == nil && !p.Valid() {
		r.err = fmt.Errorf("wire: invalid prefix %v", p)
	}
	return p
}

// bytes copies a u32-counted byte string out, into into's array when that has
// room; an empty string reads as nil.
func (r *reader) bytes(into []byte) []byte {
	n := int(r.u32())
	if r.err != nil || len(r.b) < n {
		r.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	v := append(into[:0], r.b[:n]...)
	r.b = r.b[n:]
	return v
}

// done returns the decode error, requiring full consumption of the payload.
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return ErrTrailing
	}
	return nil
}

// Append helpers.
func appendU16(b []byte, v uint16) []byte     { return binary.BigEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte     { return binary.BigEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte     { return binary.BigEndian.AppendUint64(b, v) }
func appendAddr(b []byte, a addr.Addr) []byte { return appendU32(b, uint32(a)) }

func appendPrefix(b []byte, p addr.Prefix) []byte {
	b = appendAddr(b, p.Base)
	return append(b, byte(p.Len))
}

func appendBytes(b, v []byte) []byte {
	b = appendU32(b, uint32(len(v)))
	return append(b, v...)
}
