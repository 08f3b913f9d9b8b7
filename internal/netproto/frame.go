// Package netproto implements the VOSSTRM1 datagram protocol: a versioned
// frame header (magic, version, type, flags, session id, monotonic
// sequence number, edge count) over the VOSSTRM1 element encoding
// internal/stream already defines, plus a receiver that tracks per-session
// sequence state so lost, reordered, and replayed batches are detected and
// counted — never silently applied twice or skipped, the invariant an XOR
// sketch stream lives or dies by.
//
// The protocol is fire-and-forget: a lost datagram's edges are gone, but
// the gap in the sequence space surfaces in the receiver's counters (and
// in acks), so the operator knows the sketch has diverged rather than
// trusting a silently corrupted one. Senders that want delivery
// confirmation set FlagAckRequest on a frame; the receiver answers with an
// ack frame carrying the session's cumulative counters.
//
// Frame layout (big-endian fixed-width header, varint payload):
//
//	offset size field
//	0      8    magic "VOSDGRM1"
//	8      1    version (1)
//	9      1    type (1 = data, 2 = ack)
//	10     2    flags (bit 0 = ack requested)
//	12     8    session id
//	20     8    sequence number (data) / echoed data sequence (ack)
//	28     4    edge count (data) / 0 (ack)
//	32     ...  payload
//
// A data payload is exactly count elements in the VOSSTRM1 element
// encoding (stream.AppendElements): uvarint(user<<1|op), uvarint(item). An
// ack payload is four fixed uint64s: highest sequence seen, frames
// applied, frames confirmed lost, replays dropped.
package netproto

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/vossketch/vos/internal/stream"
)

// frameMagic distinguishes VOSSTRM1 datagrams from stray traffic. It is
// deliberately not the stream file magic: a frame header is fixed-width
// where the file header is varint, and sharing the magic would let a file
// prefix half-parse as a frame.
var frameMagic = [8]byte{'V', 'O', 'S', 'D', 'G', 'R', 'M', '1'}

// Version is the only frame version this package speaks. The byte exists
// so a future incompatible header can be refused instead of misparsed.
const Version = 1

// Frame types.
const (
	// TypeData carries one batch of edges.
	TypeData = 1
	// TypeAck is the receiver's answer to FlagAckRequest.
	TypeAck = 2
)

// FlagAckRequest on a data frame asks the receiver to answer with an ack
// frame echoing this frame's sequence number.
const FlagAckRequest uint16 = 1 << 0

// HeaderSize is the fixed frame header length in bytes.
const HeaderSize = 32

// MaxFrameSize bounds a whole frame. It is the practical UDP datagram
// ceiling; DecodeFrame refuses anything larger so a forged length can
// never make the receiver buffer unbounded input.
const MaxFrameSize = 64 << 10

// ackPayloadSize is the fixed ack payload length: four uint64 counters.
const ackPayloadSize = 32

// ErrBadFrame reports a malformed datagram: short or oversized, wrong
// magic, unknown version or type, or a payload that contradicts the
// header's edge count.
var ErrBadFrame = errors.New("netproto: bad frame")

// Frame is a decoded datagram header plus its raw payload. Payload
// borrows the decode buffer; decode it (DecodeEdges, DecodeAck) before
// the buffer is reused.
type Frame struct {
	Type    uint8
	Flags   uint16
	Session uint64
	Seq     uint64
	Count   uint32
	Payload []byte
}

// Ack is the decoded ack payload: the receiver's per-session ledger at
// the moment the echoed frame was handled. A sender confirms delivery of
// sequence s once Highest covers s with Gaps and Replays unchanged.
type Ack struct {
	Session uint64
	// EchoSeq is the data sequence number that requested this ack.
	EchoSeq uint64
	// Highest is the highest sequence number the receiver has seen.
	Highest uint64
	// Applied counts frames folded into the sketch (including late
	// arrivals applied out of order).
	Applied uint64
	// Gaps counts frames confirmed lost: their sequence slid out of the
	// reorder window without ever arriving.
	Gaps uint64
	// Replays counts duplicate frames dropped.
	Replays uint64
}

// appendHeader appends the fixed header.
func appendHeader(buf []byte, typ uint8, flags uint16, session, seq uint64, count uint32) []byte {
	buf = append(buf, frameMagic[:]...)
	buf = append(buf, Version, typ)
	buf = binary.BigEndian.AppendUint16(buf, flags)
	buf = binary.BigEndian.AppendUint64(buf, session)
	buf = binary.BigEndian.AppendUint64(buf, seq)
	return binary.BigEndian.AppendUint32(buf, count)
}

// AppendDataFrame appends one data frame carrying edges to buf. The
// caller sizes batches to taste (the Go client defaults well under a
// common MTU); frames that would exceed MaxFrameSize are refused, and so
// is a batch naming a user id the element encoding cannot carry
// (stream.ErrUserRange).
func AppendDataFrame(buf []byte, session, seq uint64, flags uint16, edges []stream.Edge) ([]byte, error) {
	start := len(buf)
	buf = appendHeader(buf, TypeData, flags, session, seq, uint32(len(edges)))
	buf, err := stream.AppendElements(buf, edges)
	if err != nil {
		return nil, fmt.Errorf("netproto: %w", err)
	}
	if len(buf)-start > MaxFrameSize {
		return nil, fmt.Errorf("%w: %d-edge frame is %d bytes (max %d); split the batch",
			ErrBadFrame, len(edges), len(buf)-start, MaxFrameSize)
	}
	return buf, nil
}

// AppendAckFrame appends one ack frame to buf.
func AppendAckFrame(buf []byte, a Ack) []byte {
	buf = appendHeader(buf, TypeAck, 0, a.Session, a.EchoSeq, 0)
	buf = binary.BigEndian.AppendUint64(buf, a.Highest)
	buf = binary.BigEndian.AppendUint64(buf, a.Applied)
	buf = binary.BigEndian.AppendUint64(buf, a.Gaps)
	return binary.BigEndian.AppendUint64(buf, a.Replays)
}

// DecodeFrame validates the header of one datagram and returns it with
// the payload still raw. It never panics on adversarial input and never
// allocates proportionally to claimed (rather than actual) sizes.
func DecodeFrame(data []byte) (Frame, error) {
	if len(data) > MaxFrameSize {
		return Frame{}, fmt.Errorf("%w: %d bytes exceeds the %d byte frame cap", ErrBadFrame, len(data), MaxFrameSize)
	}
	if len(data) < HeaderSize {
		return Frame{}, fmt.Errorf("%w: %d bytes is shorter than the %d byte header", ErrBadFrame, len(data), HeaderSize)
	}
	if [8]byte(data[:8]) != frameMagic {
		return Frame{}, fmt.Errorf("%w: wrong magic", ErrBadFrame)
	}
	if data[8] != Version {
		return Frame{}, fmt.Errorf("%w: unknown version %d (want %d)", ErrBadFrame, data[8], Version)
	}
	f := Frame{
		Type:    data[9],
		Flags:   binary.BigEndian.Uint16(data[10:12]),
		Session: binary.BigEndian.Uint64(data[12:20]),
		Seq:     binary.BigEndian.Uint64(data[20:28]),
		Count:   binary.BigEndian.Uint32(data[28:32]),
		Payload: data[32:],
	}
	switch f.Type {
	case TypeData:
		// Each element is at least two payload bytes, so a count the
		// payload cannot hold is forged — reject before DecodeEdges would
		// size a slice from it.
		if uint64(f.Count) > uint64(len(f.Payload))/2 {
			return Frame{}, fmt.Errorf("%w: count %d exceeds capacity of %d payload bytes", ErrBadFrame, f.Count, len(f.Payload))
		}
	case TypeAck:
		if f.Count != 0 || len(f.Payload) != ackPayloadSize {
			return Frame{}, fmt.Errorf("%w: ack frame with count %d and %d payload bytes", ErrBadFrame, f.Count, len(f.Payload))
		}
	default:
		return Frame{}, fmt.Errorf("%w: unknown type %d", ErrBadFrame, f.Type)
	}
	return f, nil
}

// DecodeEdges decodes a data frame's payload: exactly Count elements with
// nothing left over.
func (f Frame) DecodeEdges() ([]stream.Edge, error) { return f.DecodeEdgesInto(nil) }

// DecodeEdgesInto is DecodeEdges into the caller's memory
// (stream.DecodeElementsInto): a read loop passes the previous result back
// and decodes without allocating.
func (f Frame) DecodeEdgesInto(dst []stream.Edge) ([]stream.Edge, error) {
	if f.Type != TypeData {
		return nil, fmt.Errorf("%w: DecodeEdges on type-%d frame", ErrBadFrame, f.Type)
	}
	out, err := stream.DecodeElementsInto(dst, f.Payload, uint64(f.Count))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	return out, nil
}

// DecodeAck decodes an ack frame's payload.
func (f Frame) DecodeAck() (Ack, error) {
	if f.Type != TypeAck {
		return Ack{}, fmt.Errorf("%w: DecodeAck on type-%d frame", ErrBadFrame, f.Type)
	}
	p := f.Payload
	return Ack{
		Session: f.Session,
		EchoSeq: f.Seq,
		Highest: binary.BigEndian.Uint64(p[0:8]),
		Applied: binary.BigEndian.Uint64(p[8:16]),
		Gaps:    binary.BigEndian.Uint64(p[16:24]),
		Replays: binary.BigEndian.Uint64(p[24:32]),
	}, nil
}
