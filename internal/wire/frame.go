package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Frame is the transport envelope: one tagged message between nodes.
// transport.Message is an alias of this type, so the frame's Go shape
// and its wire layout (see AppendFrame) are defined in this one place.
type Frame struct {
	From, To int
	Tag      uint64
	// TID is the logical-thread id the frame belongs to: replies,
	// asynchronous batches and deferred errors correlate per thread,
	// not per node. Zero is the system thread (migration, adaptation,
	// shutdown and other runtime-internal traffic).
	TID  uint64
	Kind uint8
	// Seq and Ack are the reliability layer's per-(peer, direction)
	// sequence number and cumulative acknowledgement; Dedup is the
	// runtime's per-(thread, invocation) idempotency id for re-driven
	// requests. All three are zero outside fault-tolerant runs, where
	// no frame carries them on the wire.
	Seq   uint64
	Ack   uint64
	Dedup uint64
	// View is the membership view id the sender held when it emitted
	// the frame: coordination traffic (ADAPT, MIGRATE, RECOVER rounds
	// and the membership handshake itself) is stamped with it so two
	// nodes that disagree on the cluster's composition detect the skew
	// instead of acting on it. Zero means "no membership in play", so a
	// non-elastic cluster sends no frame carrying a View.
	View uint64
	// Time is the sender's simulated clock for the virtual-time model
	// (paper §7.2's heterogeneous-node experiments); zero, and absent
	// from the wire, unless the run models CPU speeds.
	Time    float64
	Payload []byte
}

// Frame flag bits. Bit i of a frame's flags byte is set exactly when
// optional field i is nonzero; the remaining bits are reserved and
// must be zero.
const (
	flagTID = 1 << iota
	flagSeq
	flagAck
	flagDedup
	flagView
	flagTime

	flagsReserved = 0xC0 // bits 6 and 7
)

// Transport-level control kinds. They live at the top of the kind
// space, far from the runtime's message kinds, and never reach the
// runtime's handlers: HEARTBEAT frames are absorbed by the reliability
// layer (they exist to carry liveness and acknowledgements), and
// PEERDOWN is synthesised locally by the failure detector — it is the
// one control kind a runtime serve loop does observe.
const (
	// KindHeartbeat is a reliability-layer liveness probe carrying the
	// sender's cumulative acknowledgement. Never sequenced, never
	// retransmitted, never delivered to the application.
	KindHeartbeat uint8 = 0xF0
	// KindPeerDown is the failure detector's verdict, synthesised into
	// the local receive stream (never sent on the wire): Message.From
	// names the peer declared dead.
	KindPeerDown uint8 = 0xF1
	// KindJoin is the membership handshake's opening frame: a fresh
	// node presents its program digest, address and speed to the rank-0
	// coordinator and asks to be admitted. Unlike the two kinds above
	// it does cross the wire and is handled by the runtime serve loop.
	KindJoin uint8 = 0xF2
	// KindWelcome carries the coordinator's admission verdict. As a
	// reply to JOIN it grants the joiner its rank, the new view and the
	// coherence epoch; as a broadcast it installs the new view on every
	// existing member (and, on a leave, the rehomed ownership).
	KindWelcome uint8 = 0xF3
	// KindLeave asks a member to drain: migrate every object it owns to
	// the surviving ranks and report the new homes, after which the
	// coordinator retires it from the view.
	KindLeave uint8 = 0xF4
)

// MaxFrameBody bounds a decoded frame body so a corrupted length prefix
// fails fast instead of attempting a huge allocation.
const MaxFrameBody = 1 << 30

// uvarintLen is the encoded size of v as an unsigned varint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// header returns the frame's flags byte — one bit per nonzero optional
// field — and its exact encoded body size, so AppendFrame can emit the
// length prefix first and encode the body in place.
func (f *Frame) header() (flags byte, bodyLen int) {
	bodyLen = 1 + // flags byte
		uvarintLen(uint64(f.From)) +
		uvarintLen(uint64(f.To)) +
		uvarintLen(f.Tag) +
		1 + // kind byte
		uvarintLen(uint64(len(f.Payload))) +
		len(f.Payload)
	opt := func(v uint64, bit byte) {
		if v != 0 {
			flags |= bit
			bodyLen += uvarintLen(v)
		}
	}
	opt(f.TID, flagTID)
	opt(f.Seq, flagSeq)
	opt(f.Ack, flagAck)
	opt(f.Dedup, flagDedup)
	opt(f.View, flagView)
	if f.Time != 0 {
		flags |= flagTime
		bodyLen += 8
	}
	return flags, bodyLen
}

// AppendFrame encodes the frame onto b in the frame layout:
//
//	uvarint bodyLen | flags | From | To | Tag | Kind |
//	    [TID] [Seq] [Ack] [Dedup] [View] [Time] | payloadLen | payload
//
// From, To, Tag, the optional integer fields and payloadLen are
// unsigned varints, flags and Kind are single bytes, and Time is a
// big-endian float64. Flag bit i is set exactly when optional field i
// is nonzero:
//
//	bit 0 TID | bit 1 Seq | bit 2 Ack | bit 3 Dedup | bit 4 View | bit 5 Time
//
// so a field that is zero costs nothing on the wire. Bits 6 and 7 are
// reserved and always zero. It is allocation-free apart from growing
// b: the body length is computed up front and the fields encode
// directly into the destination, so a caller appending into a pooled
// or pre-grown buffer pays nothing per frame.
func AppendFrame(b []byte, f *Frame) []byte {
	flags, n := f.header()
	b = appendUvarint(b, uint64(n))
	b = append(b, flags)
	b = appendUvarint(b, uint64(f.From))
	b = appendUvarint(b, uint64(f.To))
	b = appendUvarint(b, f.Tag)
	b = append(b, f.Kind)
	if flags&flagTID != 0 {
		b = appendUvarint(b, f.TID)
	}
	if flags&flagSeq != 0 {
		b = appendUvarint(b, f.Seq)
	}
	if flags&flagAck != 0 {
		b = appendUvarint(b, f.Ack)
	}
	if flags&flagDedup != 0 {
		b = appendUvarint(b, f.Dedup)
	}
	if flags&flagView != 0 {
		b = appendUvarint(b, f.View)
	}
	if flags&flagTime != 0 {
		b = appendFloat(b, f.Time)
	}
	b = appendUvarint(b, uint64(len(f.Payload)))
	return append(b, f.Payload...)
}

// ByteScanner is the reader a frame decoder needs (bufio.Reader
// satisfies it).
type ByteScanner interface {
	io.Reader
	io.ByteReader
}

// ReadFrameScratch reads one frame using (and returning) a reusable
// scratch buffer for the body, so a steady-state read loop allocates
// only when a frame outgrows every predecessor. The returned frame's
// Payload aliases the scratch buffer: it is valid until the next
// ReadFrameScratch call with the same scratch, and callers that keep
// the payload must copy it out (the TCP transport copies into a pooled
// buffer). io.EOF is returned unchanged on a clean end-of-stream
// before the length prefix.
func ReadFrameScratch(r ByteScanner, scratch []byte) (Frame, []byte, error) {
	var f Frame
	n, err := readUvarint(r)
	if err != nil {
		return f, scratch, err
	}
	if n > MaxFrameBody {
		return f, scratch, fmt.Errorf("wire: frame body %d exceeds limit", n)
	}
	if uint64(cap(scratch)) < n {
		scratch = make([]byte, n)
	}
	body := scratch[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return f, scratch, err
	}
	f, err = decodeFrameBody(body)
	return f, scratch, err
}

// DecodeFrameBuf decodes one length-prefixed frame from the front of
// buf, returning the remainder. The frame's Payload aliases buf. It is
// the in-memory counterpart of ReadFrameScratch, used to walk
// coalesced multi-frame buffers (a decompressed segment, a captured
// stream). io.EOF is returned on an empty buffer.
func DecodeFrameBuf(buf []byte) (Frame, []byte, error) {
	var f Frame
	if len(buf) == 0 {
		return f, buf, io.EOF
	}
	n, w := binary.Uvarint(buf)
	if w <= 0 || w != uvarintLen(n) {
		return f, buf, fmt.Errorf("wire: bad frame length prefix")
	}
	if n > MaxFrameBody {
		return f, buf, fmt.Errorf("wire: frame body %d exceeds limit", n)
	}
	rest := buf[w:]
	if uint64(len(rest)) < n {
		return f, buf, fmt.Errorf("wire: truncated frame body (%d of %d bytes)", len(rest), n)
	}
	f, err := decodeFrameBody(rest[:n])
	return f, rest[n:], err
}

// decodeFrameBody parses a frame body; the payload aliases body. Only
// the encoding AppendFrame would produce is accepted: reserved flag
// bits, a flagged field that decodes as zero, bytes past the payload
// and over-long varints are all errors, so every frame that decodes
// re-encodes byte for byte. SegmentMagic's second byte ('D', 0x44)
// sets reserved bit 6, so the compressed-framing preamble never
// passes for a raw frame.
func decodeFrameBody(body []byte) (Frame, error) {
	var f Frame
	rd := NewReader(body)
	flags := rd.Byte()
	if flags&flagsReserved != 0 {
		return f, fmt.Errorf("wire: reserved frame flag bits set (%#02x)", flags)
	}
	f.From = int(rd.Uvarint())
	f.To = int(rd.Uvarint())
	f.Tag = rd.Uvarint()
	f.Kind = rd.Byte()
	if flags&flagTID != 0 {
		f.TID = rd.Uvarint()
	}
	if flags&flagSeq != 0 {
		f.Seq = rd.Uvarint()
	}
	if flags&flagAck != 0 {
		f.Ack = rd.Uvarint()
	}
	if flags&flagDedup != 0 {
		f.Dedup = rd.Uvarint()
	}
	if flags&flagView != 0 {
		f.View = rd.Uvarint()
	}
	if flags&flagTime != 0 {
		f.Time = rd.Float()
	}
	pn := rd.Uvarint()
	if rd.Err() != nil {
		return f, rd.Err()
	}
	if uint64(len(rd.Rest())) != pn {
		return f, fmt.Errorf("wire: frame payload length %d, body holds %d", pn, len(rd.Rest()))
	}
	if pn > 0 {
		f.Payload = rd.Rest()
	}
	// A flagged zero field or an over-long varint makes the body longer
	// than the encoding AppendFrame gives the decoded frame.
	if _, n := f.header(); n != len(body) {
		return f, fmt.Errorf("wire: non-canonical frame: zero field flagged or varint over-long")
	}
	return f, nil
}

// readUvarint reads a varint from a stream one byte at a time, keeping
// io.EOF distinguishable (a clean close between frames). Like the
// frame decoder it accepts only the minimal encoding.
func readUvarint(r io.ByteReader) (uint64, error) {
	var x uint64
	var s uint
	for i := 0; ; i++ {
		b, err := r.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				return 0, io.ErrUnexpectedEOF
			}
			return 0, err
		}
		if i == 9 && b > 1 {
			return 0, fmt.Errorf("wire: uvarint overflow")
		}
		if b < 0x80 {
			if b == 0 && i > 0 {
				return 0, fmt.Errorf("wire: non-minimal uvarint")
			}
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
}
