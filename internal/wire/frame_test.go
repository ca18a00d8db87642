package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// runtimeFrameKinds mirrors the runtime's frame-kind space (NEW=1 …
// DEPSEQ=17). The codec is kind-agnostic, but every optional field
// must round-trip on every kind the protocol actually sends.
var runtimeFrameKinds = []uint8{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}

// protocolFrameKinds adds the transport control kinds and the
// membership handshake kinds to the runtime's.
var protocolFrameKinds = append(append([]uint8{}, runtimeFrameKinds...),
	KindHeartbeat, KindPeerDown, KindJoin, KindWelcome, KindLeave)

// sameFrame compares frames field by field, Time by bit pattern (NaN
// survives the codec) and a nil payload as equal to an empty one (the
// decoder returns nil for no payload).
func sameFrame(a, b *Frame) bool {
	x, y := *a, *b
	x.Payload, y.Payload = nil, nil
	x.Time, y.Time = 0, 0
	return reflect.DeepEqual(x, y) && bytes.Equal(a.Payload, b.Payload) &&
		math.Float64bits(a.Time) == math.Float64bits(b.Time)
}

// decode decodes one frame from the front of b through both decoders —
// the stream reader and the in-memory walker — and fails the test if
// they disagree on whether b starts with a valid frame.
func decode(t testing.TB, b []byte) (Frame, error) {
	t.Helper()
	f, _, err := ReadFrameScratch(bufio.NewReader(bytes.NewReader(b)), nil)
	g, _, gerr := DecodeFrameBuf(b)
	if (err == nil) != (gerr == nil) {
		t.Fatalf("decoders disagree on %x: stream %v, buffer %v", b, err, gerr)
	}
	if err == nil && !sameFrame(&f, &g) {
		t.Fatalf("decoders disagree on %x: %+v vs %+v", b, f, g)
	}
	return f, err
}

// roundTrip encodes f, decodes it back and requires the identity.
func roundTrip(t *testing.T, f Frame) []byte {
	t.Helper()
	enc := AppendFrame(nil, &f)
	got, err := decode(t, enc)
	if err != nil {
		t.Fatalf("%+v: %v", f, err)
	}
	if !sameFrame(&got, &f) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, f)
	}
	return enc
}

// optionalFields returns pointers to f's optional varint fields in
// flag-bit order.
func optionalFields(f *Frame) [5]*uint64 {
	return [5]*uint64{&f.TID, &f.Seq, &f.Ack, &f.Dedup, &f.View}
}

// withFields returns base with optional field i (flag-bit order) set
// to v for every bit i in mask; Time takes v as a float.
func withFields(base Frame, mask byte, v uint64) Frame {
	for i, p := range optionalFields(&base) {
		if mask&(1<<i) != 0 {
			*p = v
		}
	}
	if mask&flagTime != 0 {
		base.Time = float64(v) + 0.5
	}
	return base
}

// rawFrame hand-builds a frame from the documented layout: flags, From
// 1, To 2, Tag 3, Kind 4, the given optional-field bytes, then the
// payload. It is the reference the layout tests hold AppendFrame to.
func rawFrame(flags byte, opt []byte, payload string) []byte {
	body := append([]byte{flags, 1, 2, 3, 4}, opt...)
	body = appendUvarint(body, uint64(len(payload)))
	body = append(body, payload...)
	return append(appendUvarint(nil, uint64(len(body))), body...)
}

// TestFrameFieldCombinationsRoundTrip: every one of the 64 presence
// combinations of the optional fields round-trips, the flags byte
// names exactly the nonzero fields, and a cut at every byte offset of
// the encoding is a clean error from both decoders.
func TestFrameFieldCombinationsRoundTrip(t *testing.T) {
	base := Frame{From: 300, To: 2, Tag: 1 << 35, Kind: 9, Payload: []byte("payload")}
	for mask := 0; mask < 64; mask++ {
		enc := roundTrip(t, withFields(base, byte(mask), 1<<20))
		if _, w := binary.Uvarint(enc); enc[w] != byte(mask) {
			t.Fatalf("mask %#02x: flags byte %#02x", mask, enc[w])
		}
		for n := 0; n < len(enc); n++ {
			if _, err := decode(t, enc[:n]); err == nil {
				t.Fatalf("mask %#02x: truncation at %d of %d bytes decoded", mask, n, len(enc))
			}
		}
	}
}

// TestFrameAbsentFieldsDecodeZero pins the layout against a hand-built
// reference: a frame whose optional fields are all zero carries none
// of them (flags 0), a frame with all six present carries them in
// flag-bit order after Kind, and absent fields decode as zero.
func TestFrameAbsentFieldsDecodeZero(t *testing.T) {
	plain := Frame{From: 1, To: 2, Tag: 3, Kind: 4, Payload: []byte("hi")}
	if enc := AppendFrame(nil, &plain); !bytes.Equal(enc, rawFrame(0, nil, "hi")) {
		t.Fatalf("plain frame layout:\n got %x\nwant %x", enc, rawFrame(0, nil, "hi"))
	}
	got, err := decode(t, rawFrame(0, nil, "hi"))
	if err != nil || !sameFrame(&got, &plain) {
		t.Fatalf("flags-0 frame decoded to %+v (%v), want %+v", got, err, plain)
	}

	full := plain
	full.TID, full.Seq, full.Ack, full.Dedup, full.View, full.Time = 5, 6, 7, 8, 9, 2.5
	opt := appendFloat([]byte{5, 6, 7, 8, 9}, 2.5)
	if enc := AppendFrame(nil, &full); !bytes.Equal(enc, rawFrame(0x3F, opt, "hi")) {
		t.Fatalf("full frame layout:\n got %x\nwant %x", enc, rawFrame(0x3F, opt, "hi"))
	}
}

// TestFrameThreadIDRoundTrip is the round-trip property for the
// thread-id field: for every runtime frame kind and a spread of thread
// ids (including the zero system thread and >1-varint-byte values),
// encode→decode is the identity.
func TestFrameThreadIDRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tids := []uint64{0, 1, 2, 127, 128, 1 << 20, 1<<63 - 1}
	for _, kind := range runtimeFrameKinds {
		for _, tid := range tids {
			f := Frame{
				From:    rng.Intn(8),
				To:      rng.Intn(8),
				Tag:     rng.Uint64() >> uint(rng.Intn(64)),
				TID:     tid,
				Kind:    kind,
				Time:    rng.NormFloat64(),
				Payload: make([]byte, rng.Intn(64)),
			}
			rng.Read(f.Payload)
			roundTrip(t, f)
		}
	}
}

// TestFrameV3RoundTrip is the round-trip property for the reliability
// fields: for every frame kind the protocol sends and a spread of
// Seq/Ack/Dedup values (1-byte and multi-byte varints), encode→decode
// is the identity.
func TestFrameV3RoundTrip(t *testing.T) {
	for _, kind := range protocolFrameKinds {
		for _, seq := range []uint64{1, 127, 128, 1 << 20, 1 << 40} {
			roundTrip(t, Frame{
				From: 1, To: 2, Tag: 9, TID: 5, Kind: kind,
				Seq: seq, Ack: seq - 1, Dedup: seq * 3,
				Time: 1.5, Payload: []byte("payload"),
			})
		}
	}
}

// TestFrameV4RoundTrip is the round-trip property for the view-id
// field: for every frame kind the protocol sends and a spread of view
// ids, with and without reliability state, encode→decode is the
// identity.
func TestFrameV4RoundTrip(t *testing.T) {
	for _, kind := range protocolFrameKinds {
		for _, view := range []uint64{1, 2, 127, 128, 1 << 20, 1 << 40} {
			for _, seq := range []uint64{0, 77} {
				roundTrip(t, Frame{
					From: 1, To: 2, Tag: 9, TID: 5, Kind: kind,
					Seq: seq, Ack: seq, Dedup: seq,
					View: view, Time: 1.5, Payload: []byte("payload"),
				})
			}
		}
	}
}

// TestFrameV3Truncated: a body cut anywhere inside the reliability
// fields (or before them) is a clean error.
func TestFrameV3Truncated(t *testing.T) {
	f := Frame{From: 1, To: 0, Tag: 2, TID: 3, Seq: 1 << 20, Ack: 1 << 19, Dedup: 9, Kind: 5, Payload: []byte("xyz")}
	enc := AppendFrame(nil, &f)
	for n := 1; n < len(enc); n++ {
		if _, err := decode(t, enc[:n]); err == nil {
			t.Fatalf("truncation at %d of %d bytes decoded successfully", n, len(enc))
		}
	}
}

// TestFrameV4Truncated: a body cut anywhere inside the view field (or
// before it) is a clean error.
func TestFrameV4Truncated(t *testing.T) {
	f := Frame{From: 1, To: 0, Tag: 2, TID: 3, Seq: 1 << 20, Ack: 1 << 19, Dedup: 9, View: 1 << 30, Kind: KindWelcome, Payload: []byte("xyz")}
	enc := AppendFrame(nil, &f)
	for n := 1; n < len(enc); n++ {
		if _, err := decode(t, enc[:n]); err == nil {
			t.Fatalf("truncation at %d of %d bytes decoded successfully", n, len(enc))
		}
	}
}

// TestFrameUnknownVersionRejected: flag bits 6 and 7 are reserved for
// a future layout, so a frame setting either — alone or next to valid
// field bits — is a clean error, never a misparse.
func TestFrameUnknownVersionRejected(t *testing.T) {
	for _, flags := range []byte{1 << 6, 1 << 7, 1<<6 | flagTID, 0xFF} {
		_, err := decode(t, rawFrame(flags, bytes.Repeat([]byte{1}, 16), ""))
		if err == nil || !strings.Contains(err.Error(), "reserved") {
			t.Fatalf("flags %#02x: got %v, want a reserved-bit error", flags, err)
		}
	}
}

// TestFrameFlaggedZeroFieldRejected: a flag bit whose field decodes as
// zero is an error — AppendFrame never sets one, so accepting it would
// let two encodings denote the same frame.
func TestFrameFlaggedZeroFieldRejected(t *testing.T) {
	for bit := 0; bit < 6; bit++ {
		zero := []byte{0}
		if bit == 5 {
			zero = make([]byte, 8) // Time: float64 0.0
		}
		if _, err := decode(t, rawFrame(1<<bit, zero, "x")); err == nil {
			t.Fatalf("flag bit %d with a zero field decoded successfully", bit)
		}
	}
}

// TestFrameOverlongVarintRejected: a varint padded with continuation
// bytes — in the length prefix or in the header — is an error, for the
// same reason as a flagged zero field.
func TestFrameOverlongVarintRejected(t *testing.T) {
	frame := rawFrame(0, nil, "x")
	prefix := append([]byte{frame[0] | 0x80, 0}, frame[1:]...)
	body := append([]byte(nil), frame[1:]...)
	body = append([]byte{body[0], body[1] | 0x80, 0}, body[2:]...) // From
	header := append([]byte{byte(len(body))}, body...)
	for name, b := range map[string][]byte{"length prefix": prefix, "From": header} {
		if _, err := decode(t, b); err == nil {
			t.Fatalf("over-long %s decoded successfully", name)
		}
	}
}

// TestFrameSegmentMagicRejected: the compressed-framing preamble never
// decodes as a raw frame, whatever follows it — its second byte ('D')
// lands on the flags byte and sets reserved bit 6.
func TestFrameSegmentMagicRejected(t *testing.T) {
	stream := append(SegmentMagic[:], make([]byte, 128)...)
	_, err := decode(t, stream)
	if err == nil || !strings.Contains(err.Error(), "reserved") {
		t.Fatalf("SegmentMagic decoded as a frame (err %v)", err)
	}
}

// FuzzReadFrame: arbitrary bytes must never panic either frame
// decoder, both must agree, and anything that decodes must re-encode
// byte for byte — the decoder accepts exactly the encoder's output.
func FuzzReadFrame(f *testing.F) {
	plain := Frame{From: 2, To: 1, Tag: 9, Kind: 6, Payload: []byte("abc")}
	full := withFields(plain, 0x3F, 1<<40)
	nan := plain
	nan.Time = math.NaN()
	for _, seed := range [][]byte{
		AppendFrame(nil, &plain),
		AppendFrame(nil, &full),
		AppendFrame(nil, &nan),
		rawFrame(1<<6, nil, ""),          // reserved flag bit
		rawFrame(flagSeq, []byte{0}, ""), // flagged zero field
		SegmentMagic[:],
		AppendFrame(nil, &full)[:12], // truncated
		{0x81, 0x00},                 // over-long length prefix
		{},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decode(t, data)
		if err != nil {
			return
		}
		_, rest, _ := DecodeFrameBuf(data)
		if enc := AppendFrame(nil, &got); !bytes.Equal(enc, data[:len(data)-len(rest)]) {
			t.Fatalf("re-encode differs:\n got %x\nwant %x", enc, data[:len(data)-len(rest)])
		}
	})
}

// FuzzReadFrameV4 fuzzes the view-carrying membership frames (the
// frames wire version 4 introduced): any input either fails cleanly or
// decodes to a frame whose re-encoding decodes to the same frame, View
// included.
func FuzzReadFrameV4(f *testing.F) {
	join := Frame{From: 2, To: 1, Tag: 9, TID: 1 << 33, View: 4, Kind: KindJoin, Payload: []byte("abc")}
	full := Frame{From: 1, To: 2, Tag: 3, TID: 4, Seq: 1 << 21, Ack: 7, Dedup: 1 << 40, View: 1 << 50, Kind: KindWelcome, Payload: []byte("v4")}
	for _, seed := range [][]byte{
		AppendFrame(nil, &join),
		AppendFrame(nil, &full),
		rawFrame(flagView, []byte{4}, ""), // hand-built view-only body
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decode(t, data)
		if err != nil {
			return
		}
		again, err := decode(t, AppendFrame(nil, &got))
		if err != nil {
			t.Fatalf("re-decode of re-encoded frame failed: %v", err)
		}
		if !sameFrame(&again, &got) {
			t.Fatalf("re-encode not idempotent: %+v vs %+v", again, got)
		}
	})
}
