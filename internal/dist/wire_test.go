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

// FuzzWireDecode drives arbitrary bytes through both decode paths: the
// decoder must never panic, and any frame it does accept must re-encode
// to the identical payload.
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(EncodeFrame(&Frame{Type: TypeData, Rank: 1, Step: 2, Motion: 3, Data: []float64{1, 2}}))
	f.Add(EncodeFrame(&Frame{Type: TypeHello, Rank: 0, Step: 4}))
	for _, c := range corruptCorpus() {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
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
