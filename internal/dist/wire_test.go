package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
)

func frameEqual(a, b *Frame) bool {
	if a.Type != b.Type || a.Rank != b.Rank || a.Step != b.Step || a.Motion != b.Motion {
		return false
	}
	if len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

func TestWireRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: TypeHello, Rank: 3, Step: 8},
		{Type: TypeData, Rank: 0, Step: 0, Motion: 0, Data: nil},
		{Type: TypeData, Rank: 65535, Step: 1<<32 - 1, Motion: 7,
			Data: []float64{0, -0.0, 1.5, math.Inf(1), math.NaN(), 1e-308}},
	}
	var buf bytes.Buffer
	var scratch []byte
	var err error
	for i := range frames {
		scratch, err = WriteFrame(&buf, &frames[i], scratch)
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	var read []byte
	for i := range frames {
		var f Frame
		f, read, err = ReadFrame(&buf, DefaultMaxFrameValues, read)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !frameEqual(&f, &frames[i]) {
			t.Fatalf("frame %d round-trip mismatch: %+v vs %+v", i, f, frames[i])
		}
	}
	if _, _, err := ReadFrame(&buf, DefaultMaxFrameValues, read); err != io.EOF {
		t.Fatalf("expected clean EOF, got %v", err)
	}
}

// corruptCorpus is the decoder's corruption corpus: every corrupted,
// truncated, or oversized frame must produce an error —
// never a panic, never an allocation sized by attacker-controlled
// bytes.
func corruptCorpus() map[string][]byte {
	good := EncodeFrame(&Frame{Type: TypeData, Rank: 1, Step: 2, Motion: 3, Data: []float64{1, 2, 3}})
	flip := func(off int) []byte {
		c := append([]byte(nil), good...)
		c[off] ^= 0xff
		return c
	}
	oversized := append([]byte(nil), good...)
	// count field: claim 2^31 values while carrying 3.
	binary.LittleEndian.PutUint32(oversized[4+headerSize-4:], 1<<31-1)
	undersized := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(undersized[4+headerSize-4:], 2)
	shortPrefix := good[:3]
	truncatedHeader := good[:4+headerSize-5]
	truncatedPayload := good[:len(good)-7]
	hugeLen := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(hugeLen[:4], 1<<30)
	tinyLen := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(tinyLen[:4], headerSize-1)
	return map[string][]byte{
		"short-prefix":      shortPrefix,
		"truncated-header":  truncatedHeader,
		"truncated-payload": truncatedPayload,
		"bad-magic":         flip(4),
		"bad-type":          flip(4 + 4),
		"oversized-count":   oversized,
		"undersized-count":  undersized,
		"huge-length":       hugeLen,
		"tiny-length":       tinyLen,
		"empty":             nil,
	}
}

func TestWireCorruptionCorpus(t *testing.T) {
	for name, data := range corruptCorpus() {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %s: %v", name, r)
				}
			}()
			_, _, err := ReadFrame(bytes.NewReader(data), 1024, nil)
			if err == nil {
				t.Fatalf("%s: expected error", name)
			}
			if name == "empty" {
				if err != io.EOF {
					t.Fatalf("empty stream: want io.EOF, got %v", err)
				}
				return
			}
			// Truncations surface as io errors; malformed payloads as
			// ErrProtocol. Either way the error must be typed, not a panic.
			if !errors.Is(err, ErrProtocol) &&
				!errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
				t.Fatalf("%s: untyped error %v", name, err)
			}
		})
	}
}

func TestDecodeRejectsOversizedBeforeAllocating(t *testing.T) {
	// A 23-byte payload claiming 2^29 values must be rejected from the
	// header alone; DecodeFrame never allocates count*8 bytes.
	payload := make([]byte, headerSize)
	copy(payload, wireMagic)
	payload[4] = TypeData
	binary.LittleEndian.PutUint32(payload[headerSize-4:], 1<<29)
	if _, err := DecodeFrame(payload, 1<<29+1); !errors.Is(err, ErrProtocol) {
		t.Fatalf("length/count mismatch not rejected: %v", err)
	}
	if _, err := DecodeFrame(payload, 64); !errors.Is(err, ErrProtocol) {
		t.Fatalf("count above maxValues not rejected: %v", err)
	}
}

// wireSpecials are the float64 bit patterns a bulk copy could plausibly
// get wrong where the per-value codec does not: NaNs with payloads
// (quiet and signalling, both signs), both zeros, both infinities, the
// subnormal extremes and the normal extremes.
var wireSpecials = []uint64{
	0x7ff8000000000000, 0x7ff8000000000001, 0x7ff0000000000001, 0xfff8deadbeef0001,
	0x0000000000000000, 0x8000000000000000,
	0x7ff0000000000000, 0xfff0000000000000,
	0x0000000000000001, 0x000fffffffffffff, 0x8000000000000001, 0x800fffffffffffff,
	0x0010000000000000, 0x7fefffffffffffff, 0x3ff0000000000000, 0xbff8000000000000,
}

// wireValues returns n values cycling through wireSpecials, interleaved
// with hashed bit patterns.
func wireValues(n int) []float64 {
	vs := make([]float64, n)
	h := uint64(0x9e3779b97f4a7c15)
	for i := range vs {
		if i%2 == 0 {
			vs[i] = math.Float64frombits(wireSpecials[(i/2)%len(wireSpecials)])
			continue
		}
		h ^= h >> 31
		h *= 0xbf58476d1ce4e5b9
		vs[i] = math.Float64frombits(h)
	}
	return vs
}

// TestWireBulkMatchesLoop holds the codec's bulk copies to the per-value
// loops byte for byte and bit for bit: encoding behind a header-sized
// prefix, decoding, and a whole frame against one encoded value by
// value.
func TestWireBulkMatchesLoop(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 1000} {
		vs := wireValues(n)
		prefix := []byte("0123456789abcdefghijkl")
		bulk := appendValues(append([]byte(nil), prefix...), vs)
		loop := appendValuesLoop(append([]byte(nil), prefix...), vs)
		if !bytes.Equal(bulk, loop) {
			t.Fatalf("n=%d: bulk encoding differs from the per-value loop", n)
		}
		enc := loop[len(prefix):]
		gotBulk, gotLoop := make([]float64, n), make([]float64, n)
		decodeValues(gotBulk, enc)
		decodeValuesLoop(gotLoop, enc)
		for i := range vs {
			want := math.Float64bits(vs[i])
			if b, l := math.Float64bits(gotBulk[i]), math.Float64bits(gotLoop[i]); b != want || l != want {
				t.Fatalf("n=%d value %d: bulk %#016x, loop %#016x, sent %#016x", n, i, b, l, want)
			}
		}

		f := Frame{Type: TypeData, Rank: 5, Step: 6, Motion: 7, Data: vs}
		want := binary.LittleEndian.AppendUint32(nil, uint32(headerSize+8*n))
		want = append(want, wireMagic...)
		want = append(want, TypeData)
		want = binary.LittleEndian.AppendUint16(want, 5)
		want = binary.LittleEndian.AppendUint32(want, 6)
		want = binary.LittleEndian.AppendUint32(want, 7)
		want = binary.LittleEndian.AppendUint32(want, uint32(n))
		want = appendValuesLoop(want, vs)
		if !bytes.Equal(EncodeFrame(&f), want) {
			t.Fatalf("n=%d: EncodeFrame differs from the per-value encoding", n)
		}
		got, err := DecodeFrame(want[4:], n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !frameEqual(&got, &f) {
			t.Fatalf("n=%d: decoded frame differs from the sent one", n)
		}
	}
}

// TestDecodeFrameIntoBuffer: a frame decodes into a large enough buffer
// in place and into a fresh slice of exactly its count otherwise, and
// an empty frame or a rejected one leaves the buffer as it was.
func TestDecodeFrameIntoBuffer(t *testing.T) {
	sent := Frame{Type: TypeData, Rank: 1, Step: 2, Motion: 3, Data: wireValues(3)}
	payload := EncodeFrame(&sent)[4:]
	for _, size := range []int{0, 2, 3, 8} {
		buf := make([]float64, size)
		f, next, err := DecodeFrameInto(payload, 64, buf)
		if err != nil {
			t.Fatalf("buffer %d: %v", size, err)
		}
		if !frameEqual(&f, &sent) {
			t.Fatalf("buffer %d: decoded frame differs from the sent one", size)
		}
		if len(f.Data) != 3 || cap(f.Data) != 3 || &f.Data[0] != &next[0] {
			t.Fatalf("buffer %d: Data len %d cap %d, not the returned buffer's head", size, len(f.Data), cap(f.Data))
		}
		if inPlace := size > 0 && &next[0] == &buf[0]; size >= 3 != inPlace {
			t.Fatalf("buffer %d: decoded in place %v", size, inPlace)
		}
	}
	buf := make([]float64, 4)
	empty := EncodeFrame(&Frame{Type: TypeData})[4:]
	if f, next, err := DecodeFrameInto(empty, 64, buf); err != nil || f.Data != nil || &next[0] != &buf[0] {
		t.Fatalf("empty frame: data %v, err %v, buffer kept %v", f.Data, err, &next[0] == &buf[0])
	}
	if _, next, err := DecodeFrameInto(payload, 2, buf); !errors.Is(err, ErrProtocol) || &next[0] != &buf[0] {
		t.Fatalf("count over the bound: err %v, buffer kept %v", err, &next[0] == &buf[0])
	}
}

// FuzzWireDecode drives arbitrary bytes through both decode paths: the
// decoder must never panic, and any frame it does accept must re-encode
// to the identical payload. Decoding the payload into a buffer of
// bufLen values must give the same frame or the same rejection, in
// place when the buffer is large enough.
func FuzzWireDecode(f *testing.F) {
	good := EncodeFrame(&Frame{Type: TypeData, Rank: 1, Step: 2, Motion: 3, Data: []float64{1, 2}})
	f.Add([]byte(nil), uint16(0))
	f.Add(good, uint16(0))
	f.Add(EncodeFrame(&Frame{Type: TypeHello, Rank: 0, Step: 4}), uint16(3))
	for _, c := range corruptCorpus() {
		f.Add(c, uint16(2))
	}
	// Into a buffer too small, exact and too large.
	for _, n := range []uint16{1, 2, 1000} {
		f.Add(good, n)
	}
	// Counts that disagree with the payload: one value short, and
	// beyond the 1024-value bound.
	for _, count := range []uint32{1, 1025} {
		c := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(c[4+headerSize-4:], count)
		f.Add(c, uint16(4))
	}
	f.Fuzz(func(t *testing.T, data []byte, bufLen uint16) {
		if len(data) >= 4 {
			fr, err := DecodeFrame(data[4:], 1024)
			if err == nil {
				enc := EncodeFrame(&fr)
				if !bytes.Equal(enc[4:], data[4:]) {
					t.Fatalf("accepted payload does not re-encode identically")
				}
			} else if !errors.Is(err, ErrProtocol) {
				t.Fatalf("DecodeFrame returned untyped error %v", err)
			}
			buf := make([]float64, bufLen)
			into, _, ierr := DecodeFrameInto(data[4:], 1024, buf)
			switch {
			case (err == nil) != (ierr == nil):
				t.Fatalf("DecodeFrame error %v, DecodeFrameInto error %v", err, ierr)
			case err == nil && !frameEqual(&into, &fr):
				t.Fatalf("decoding into a %d-value buffer gives another frame", bufLen)
			case err == nil && len(into.Data) > 0 && len(into.Data) <= len(buf) && &into.Data[0] != &buf[0]:
				t.Fatalf("a %d-value frame did not decode into the %d-value buffer", len(into.Data), bufLen)
			}
		}
		fr, _, err := ReadFrame(bytes.NewReader(data), 1024, nil)
		if err == nil {
			enc := EncodeFrame(&fr)
			if len(enc) > len(data) || !bytes.Equal(enc, data[:len(enc)]) {
				t.Fatalf("accepted stream frame does not re-encode to its input prefix")
			}
		}
	})
}
