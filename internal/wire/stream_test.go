package wire

import (
	"bufio"
	"bytes"
	"io"
	"math/rand"
	"testing"
)

// chunkReader yields its underlying bytes in caller-chosen chunk
// sizes, simulating arbitrary TCP read boundaries.
type chunkReader struct {
	data   []byte
	chunks []int
	pos    int
	ci     int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if c.pos >= len(c.data) {
		return 0, io.EOF
	}
	n := len(c.data) - c.pos
	if c.ci < len(c.chunks) {
		if lim := c.chunks[c.ci]; lim < n {
			n = lim
		}
		c.ci++
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, c.data[c.pos:c.pos+n])
	c.pos += n
	return n, nil
}

// randFrame builds a random frame; each optional field is present
// with probability one half.
func randFrame(rng *rand.Rand) Frame {
	payload := make([]byte, rng.Intn(600))
	rng.Read(payload)
	f := Frame{
		From:    rng.Intn(16),
		To:      rng.Intn(16),
		Tag:     rng.Uint64() >> uint(rng.Intn(60)),
		Kind:    uint8(rng.Intn(256)),
		Payload: payload,
	}
	for _, p := range optionalFields(&f) {
		if rng.Intn(2) == 0 {
			*p = rng.Uint64() >> uint(rng.Intn(64))
		}
	}
	if rng.Intn(2) == 0 {
		f.Time = rng.NormFloat64()
	}
	return f
}

func framesEqual(t *testing.T, i int, got, want *Frame) {
	t.Helper()
	if !sameFrame(got, want) {
		t.Fatalf("frame %d mismatch: got %+v want %+v", i, got, want)
	}
}

// TestCoalescedStreamChunkedDecode is the write-combiner's codec
// property: any number of frames appended into one batch buffer (as
// tcpConn coalescing does) must decode identically through a reader
// that delivers the stream at arbitrary byte boundaries (as TCP
// does). 200 rounds of random frames × random chunking.
func TestCoalescedStreamChunkedDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		n := 1 + rng.Intn(12)
		frames := make([]Frame, n)
		var batch []byte
		for i := range frames {
			frames[i] = randFrame(rng)
			batch = AppendFrame(batch, &frames[i])
		}
		chunks := make([]int, 64)
		for i := range chunks {
			chunks[i] = 1 + rng.Intn(97)
		}
		r := bufio.NewReaderSize(&chunkReader{data: batch, chunks: chunks}, 1+rng.Intn(256))
		var scratch []byte
		for i := range frames {
			var got Frame
			var err error
			got, scratch, err = ReadFrameScratch(r, scratch)
			if err != nil {
				t.Fatalf("round %d frame %d: %v", round, i, err)
			}
			framesEqual(t, i, &got, &frames[i])
		}
		if _, _, err := ReadFrameScratch(r, scratch); err != io.EOF {
			t.Fatalf("round %d: want clean EOF after %d frames, got %v", round, n, err)
		}
	}
}

// TestDecodeFrameBufWalksBatch pins the in-memory batch decoder used
// by the segment reader: DecodeFrameBuf consumes exactly one frame per
// call and returns the untouched remainder.
func TestDecodeFrameBufWalksBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	frames := make([]Frame, 20)
	var batch []byte
	for i := range frames {
		frames[i] = randFrame(rng)
		batch = AppendFrame(batch, &frames[i])
	}
	rest := batch
	for i := range frames {
		var got Frame
		var err error
		got, rest, err = DecodeFrameBuf(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		framesEqual(t, i, &got, &frames[i])
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after decoding every frame", len(rest))
	}
}

// TestSegmentRoundTripProperty drives the compressed framing codec
// with random frame batches at every interesting size: below and
// above the compression threshold, compressible and random payloads.
// Whatever the writer chose (raw or DEFLATE), the reader must return
// the exact batch bytes, segment per segment.
func TestSegmentRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 100; round++ {
		var buf bytes.Buffer
		min := 1 << uint(rng.Intn(11)) // 1..1024
		sw := NewSegmentWriter(&buf, min)
		var batches [][]byte
		for seg := 0; seg < 1+rng.Intn(8); seg++ {
			var batch []byte
			for i := 0; i < 1+rng.Intn(6); i++ {
				f := randFrame(rng)
				if rng.Intn(2) == 0 {
					// Compressible payload: all-zero.
					f.Payload = make([]byte, len(f.Payload))
				}
				batch = AppendFrame(batch, &f)
			}
			batches = append(batches, batch)
			if err := sw.WriteSegment(batch); err != nil {
				t.Fatal(err)
			}
		}
		sr := NewSegmentReader(bufio.NewReader(&buf))
		for i, want := range batches {
			got, err := sr.Next()
			if err != nil {
				t.Fatalf("round %d segment %d: %v", round, i, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d segment %d: decoded bytes differ", round, i)
			}
		}
		if _, err := sr.Next(); err != io.EOF {
			t.Fatalf("round %d: want EOF after %d segments, got %v", round, len(batches), err)
		}
	}
}

// FuzzSegmentReader feeds arbitrary bytes to the segment decoder: it
// must return clean errors (or EOF), never panic, hang, or
// over-allocate on corrupt length prefixes.
func FuzzSegmentReader(f *testing.F) {
	var seed bytes.Buffer
	sw := NewSegmentWriter(&seed, 4)
	fr := Frame{From: 1, To: 2, Tag: 9, Kind: 3, Payload: []byte("hello world hello world")}
	_ = sw.WriteSegment(AppendFrame(nil, &fr))
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{4, 0, 'a', 'b', 'c', 'd'})
	f.Fuzz(func(t *testing.T, data []byte) {
		sr := NewSegmentReader(bufio.NewReader(bytes.NewReader(data)))
		for i := 0; i < 64; i++ {
			seg, err := sr.Next()
			if err != nil {
				return
			}
			// Decoded segments must themselves decode or error cleanly.
			rest := seg
			for len(rest) > 0 {
				var derr error
				_, rest, derr = DecodeFrameBuf(rest)
				if derr != nil {
					break
				}
			}
		}
	})
}

// FuzzSegmentWriterReader round-trips arbitrary fuzz payloads through
// the segment codec: whatever bytes go in must come back out intact
// regardless of compressibility or threshold.
func FuzzSegmentWriterReader(f *testing.F) {
	f.Add([]byte("some frame bytes"), 10)
	f.Add([]byte{}, 1)
	f.Add(bytes.Repeat([]byte{0}, 4096), 512)
	f.Fuzz(func(t *testing.T, data []byte, min int) {
		if min < 0 || min > 1<<20 {
			return
		}
		var buf bytes.Buffer
		sw := NewSegmentWriter(&buf, min)
		if err := sw.WriteSegment(data); err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			return // empty batch writes nothing
		}
		sr := NewSegmentReader(bufio.NewReader(&buf))
		got, err := sr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("segment round trip corrupted the batch")
		}
	})
}
