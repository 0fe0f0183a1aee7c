// Wire format: every message is a little-endian length-prefixed frame,
//
//	[4B payload length][payload]
//
// with payload
//
//	[4B magic "SDW1"][1B type][2B rank][4B step][4B motion][4B count][count x 8B float64 bits]
//
// The decoder is hardened: every size is validated against an explicit
// bound *before* any allocation or copy, so a crafted length or count
// returns a typed error instead of a panic or an unbounded make.
// FuzzWireDecode and the corruption corpus in wire_test.go hold that
// line.
//
// On a little-endian host a value block's memory already is its wire
// encoding, so the codec copies it in bulk; the per-value loops are the
// reference the bulk copies are tested against, and the only path on a
// big-endian host.
package dist

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"unsafe"
)

const (
	wireMagic  = "SDW1"
	headerSize = 4 + 1 + 2 + 4 + 4 + 4 // magic, type, rank, step, motion, count

	// DefaultMaxFrameValues bounds a frame's float64 count when the
	// caller has no exchange plan to size from: 4 Mi values = 32 MiB,
	// comfortably above any single ghost motion of the paper's domains
	// (a 128^2 face at depth 8 with 5 components is ~0.7 Mi values).
	DefaultMaxFrameValues = 4 << 20
)

// nativeLittle reports whether float64s are stored in wire (little-
// endian) byte order.
var nativeLittle = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// valueBytes views vs's storage as bytes. Only the bulk paths, under
// nativeLittle, use it.
func valueBytes(vs []float64) []byte {
	if len(vs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&vs[0])), 8*len(vs))
}

// appendValues appends vs's wire encoding to dst.
func appendValues(dst []byte, vs []float64) []byte {
	if nativeLittle {
		return append(dst, valueBytes(vs)...)
	}
	return appendValuesLoop(dst, vs)
}

func appendValuesLoop(dst []byte, vs []float64) []byte {
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// decodeValues fills dst from its wire encoding src, 8*len(dst) bytes.
func decodeValues(dst []float64, src []byte) {
	if nativeLittle {
		copy(valueBytes(dst), src)
		return
	}
	decodeValuesLoop(dst, src)
}

func decodeValuesLoop(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// EncodedSize returns the on-wire size of a frame with n data values,
// length prefix included.
func EncodedSize(n int) int { return 4 + headerSize + 8*n }

// AppendFrame appends f's wire encoding (length prefix + payload) to dst.
func AppendFrame(dst []byte, f *Frame) []byte {
	n := len(f.Data)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(headerSize+8*n))
	dst = append(dst, wireMagic...)
	dst = append(dst, f.Type)
	dst = binary.LittleEndian.AppendUint16(dst, f.Rank)
	dst = binary.LittleEndian.AppendUint32(dst, f.Step)
	dst = binary.LittleEndian.AppendUint32(dst, f.Motion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	return appendValues(dst, f.Data)
}

// EncodeFrame returns f's full wire encoding.
func EncodeFrame(f *Frame) []byte {
	return AppendFrame(make([]byte, 0, EncodedSize(len(f.Data))), f)
}

// DecodeFrame parses one payload (the bytes after the length prefix).
// maxValues bounds the data count; pass a plan's MaxFrameValues, or
// DefaultMaxFrameValues when none is known. Malformed input returns an
// error wrapping ErrProtocol; nothing is allocated beyond the validated
// count.
func DecodeFrame(payload []byte, maxValues int) (Frame, error) {
	f, _, err := DecodeFrameInto(payload, maxValues, nil)
	return f, err
}

// DecodeFrameInto is DecodeFrame decoding the values into buf: the
// frame's Data aliases buf when it is large enough, and a new slice of
// exactly the validated count otherwise. It returns the buffer to pass
// to the next call, so a receiver that decodes frame after frame
// allocates only while its buffer grows to the largest frame; each
// frame's Data is then valid until that next call.
func DecodeFrameInto(payload []byte, maxValues int, buf []float64) (Frame, []float64, error) {
	if len(payload) < headerSize {
		return Frame{}, buf, fmt.Errorf("%w: payload %d bytes, header needs %d", ErrProtocol, len(payload), headerSize)
	}
	if string(payload[:4]) != wireMagic {
		return Frame{}, buf, fmt.Errorf("%w: bad magic %q", ErrProtocol, payload[:4])
	}
	f := Frame{
		Type:   payload[4],
		Rank:   binary.LittleEndian.Uint16(payload[5:7]),
		Step:   binary.LittleEndian.Uint32(payload[7:11]),
		Motion: binary.LittleEndian.Uint32(payload[11:15]),
	}
	if f.Type != TypeHello && f.Type != TypeData && f.Type != typeBye {
		return Frame{}, buf, fmt.Errorf("%w: unknown frame type %d", ErrProtocol, f.Type)
	}
	count := binary.LittleEndian.Uint32(payload[15:19])
	if maxValues < 0 {
		maxValues = 0
	}
	if int64(count) > int64(maxValues) {
		return Frame{}, buf, fmt.Errorf("%w: frame claims %d values, bound is %d", ErrProtocol, count, maxValues)
	}
	// int64 math: count is already bounded, but keep the comparison
	// overflow-free on 32-bit ints regardless.
	if int64(len(payload)) != int64(headerSize)+8*int64(count) {
		return Frame{}, buf, fmt.Errorf("%w: payload %d bytes does not match %d values", ErrProtocol, len(payload), count)
	}
	if count > 0 {
		n := int(count)
		if cap(buf) < n {
			buf = make([]float64, n)
		}
		f.Data = buf[:n:n]
		decodeValues(f.Data, payload[headerSize:])
	}
	return f, buf, nil
}

// ReadFrame reads one length-prefixed frame from r, reusing scratch for
// the payload when it is large enough (the possibly-grown scratch is
// returned). The length prefix is validated against maxValues before any
// allocation: a crafted length cannot force an oversized make, it gets
// ErrProtocol. io.EOF before the first prefix byte is returned verbatim
// so callers can tell a clean close from a truncated frame
// (io.ErrUnexpectedEOF).
func ReadFrame(r io.Reader, maxValues int, scratch []byte) (Frame, []byte, error) {
	var pfx [4]byte
	if _, err := io.ReadFull(r, pfx[:]); err != nil {
		return Frame{}, scratch, err
	}
	n := int64(binary.LittleEndian.Uint32(pfx[:]))
	if maxValues < 0 {
		maxValues = 0
	}
	bound := int64(headerSize) + 8*int64(maxValues)
	if n < headerSize || n > bound {
		return Frame{}, scratch, fmt.Errorf("%w: frame length %d outside [%d, %d]", ErrProtocol, n, headerSize, bound)
	}
	if cap(scratch) < int(n) {
		scratch = make([]byte, n)
	}
	payload := scratch[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, scratch, fmt.Errorf("dist: truncated frame: %w", err)
	}
	f, err := DecodeFrame(payload, maxValues)
	return f, scratch, err
}

// WriteFrame writes f's wire encoding to w, reusing scratch (returned
// possibly grown).
func WriteFrame(w io.Writer, f *Frame, scratch []byte) ([]byte, error) {
	scratch = AppendFrame(scratch[:0], f)
	_, err := w.Write(scratch)
	return scratch, err
}
