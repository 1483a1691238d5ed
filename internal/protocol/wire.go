// Package protocol defines the binary wire protocol spoken between the
// HaoCL host runtime and the Node Management Processes (NMPs) on device
// nodes.
//
// Every OpenCL API call issued by an application is packaged by the wrapper
// library into exactly one request message that carries the function
// identity and its arguments (paper §III-B); bulk buffer contents travel in
// the same frame as the request or response body. Frames are
// length-prefixed so listeners can read them asynchronously without
// knowing message internals (paper §III-C).
package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
)

// Protocol limits. MaxFrameSize bounds a single message so a corrupted
// length prefix cannot make a listener allocate unbounded memory.
const (
	// Magic identifies a HaoCL frame; the accidental-connection case
	// (something else dialing the NMP port) fails fast.
	Magic = 0x4841 // "HA"

	// Version is the one wire protocol version a session runs at. Both
	// sides offer it in the Hello handshake, and a node refuses any other
	// offer; nothing negotiates down.
	Version = 3

	// MinVersion is the version byte stamped on plain request and
	// response frame headers.
	MinVersion = 2

	// VersionBatch is the version byte stamped on Batch envelope headers.
	VersionBatch = 3

	// MaxFrameSize is the largest permitted frame body (1 GiB), sized to
	// hold the largest Table I benchmark input with headroom.
	MaxFrameSize = 1 << 30

	headerSize = 2 + 1 + 1 + 8 + 2 + 4 // magic, version, kind, reqID, op, length
)

// FrameKind distinguishes requests from responses on a connection.
type FrameKind uint8

// Frame kinds. FrameBatch (wire v3) envelopes a sequence of request or
// response frames in one wire frame; see AppendBatch.
const (
	FrameRequest FrameKind = iota + 1
	FrameResponse
	FrameBatch
)

// frameVersion is the version byte stamped on a frame's header, fixed per
// frame kind: plain frames carry MinVersion, Batch frames VersionBatch.
func frameVersion(k FrameKind) byte {
	if k == FrameBatch {
		return VersionBatch
	}
	return MinVersion
}

// Errors returned by the framing layer.
var (
	ErrBadMagic     = errors.New("protocol: bad frame magic")
	ErrBadVersion   = errors.New("protocol: wire version mismatch")
	ErrFrameTooBig  = errors.New("protocol: frame exceeds size limit")
	ErrShortMessage = errors.New("protocol: truncated message body")
)

// Frame is one unit on the wire: a request or response envelope plus an
// opcode-specific body.
type Frame struct {
	Kind  FrameKind
	ReqID uint64
	Op    Op
	Body  []byte
}

// FrameWireSize reports the bytes f occupies on the wire (header + body),
// the unit coalescing writers budget their queues in.
func FrameWireSize(f *Frame) int { return headerSize + len(f.Body) }

// appendHeader appends a frame header announcing a body of n bytes.
func appendHeader(buf []byte, kind FrameKind, reqID uint64, op Op, n int) []byte {
	buf = binary.BigEndian.AppendUint16(buf, Magic)
	buf = append(buf, frameVersion(kind), byte(kind))
	buf = binary.BigEndian.AppendUint64(buf, reqID)
	buf = binary.BigEndian.AppendUint16(buf, uint16(op))
	return binary.BigEndian.AppendUint32(buf, uint32(n))
}

// AppendFrame appends f's wire encoding (header + body) to buf and returns
// the extended slice, so a coalescing writer can stack several frames into
// one buffer and hand them to a single Write call.
func AppendFrame(buf []byte, f *Frame) ([]byte, error) {
	if len(f.Body) > MaxFrameSize {
		return buf, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, len(f.Body))
	}
	buf = slices.Grow(buf, headerSize+len(f.Body))
	return append(appendHeader(buf, f.Kind, f.ReqID, f.Op, len(f.Body)), f.Body...), nil
}

// Bulk is the by-reference rest of a bulk frame's body. A frame whose Body
// ends with a payload's length prefix continues on the wire with Payload
// and then Tail; EncodeByRef splits a message this way and WriteFrameTo
// sends it without copying Payload.
type Bulk struct {
	Payload []byte
	Tail    []byte
}

// Len reports how many body bytes b adds to its frame (0 for nil).
func (b *Bulk) Len() int {
	if b == nil {
		return 0
	}
	return len(b.Payload) + len(b.Tail)
}

// WriteFrameTo writes f, its body continued by b (nil for a plain frame),
// without copying the body or the payload: the header and every non-empty
// segment go out as one vectored write (net.Buffers uses writev on real
// sockets). Coalescing writers use it for bulk frames, where a staging
// copy would double the payload's memory footprint for no syscall win.
func WriteFrameTo(w io.Writer, f *Frame, b *Bulk) error {
	n := len(f.Body) + b.Len()
	if n > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooBig, n)
	}
	segs := [...][]byte{f.Body, nil, nil}
	if b != nil {
		segs[1], segs[2] = b.Payload, b.Tail
	}
	bufs := make(net.Buffers, 1, 1+len(segs))
	bufs[0] = appendHeader(make([]byte, 0, headerSize), f.Kind, f.ReqID, f.Op, n)
	for _, seg := range segs {
		if len(seg) > 0 {
			bufs = append(bufs, seg)
		}
	}
	_, err := bufs.WriteTo(w)
	return err
}

// ReadFrame reads one frame from r, validating magic, version and size.
// Any header version byte in [MinVersion, Version] is accepted; the
// session's wire version itself is fixed by the Hello handshake.
func ReadFrame(r io.Reader) (*Frame, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if binary.BigEndian.Uint16(hdr[0:2]) != Magic {
		return nil, ErrBadMagic
	}
	if hdr[2] < MinVersion || hdr[2] > Version {
		return nil, fmt.Errorf("%w: got %d want %d through %d", ErrBadVersion, hdr[2], MinVersion, Version)
	}
	f := &Frame{
		Kind:  FrameKind(hdr[3]),
		ReqID: binary.BigEndian.Uint64(hdr[4:12]),
		Op:    Op(binary.BigEndian.Uint16(hdr[12:14])),
	}
	n := binary.BigEndian.Uint32(hdr[14:18])
	if n > MaxFrameSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, n)
	}
	if n > 0 {
		f.Body = make([]byte, n)
		if _, err := io.ReadFull(r, f.Body); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Encoder appends primitive values to a message body. All integers are
// big-endian. Strings and byte slices are length-prefixed with uint32.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with capacity pre-sized for small control
// messages; bulk-data messages grow it once.
func NewEncoder() *Encoder { return &Encoder{buf: make([]byte, 0, 64)} }

// Bytes returns the encoded body. The returned slice aliases the encoder's
// buffer; callers hand it straight to WriteFrame.
func (e *Encoder) Bytes() []byte { return e.buf }

// U8 appends a uint8.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U16 appends a uint16.
func (e *Encoder) U16(v uint16) {
	e.buf = binary.BigEndian.AppendUint16(e.buf, v)
}

// U32 appends a uint32.
func (e *Encoder) U32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// U64 appends a uint64.
func (e *Encoder) U64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// I64 appends an int64.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// F64 appends a float64.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends a bool as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Blob appends a length-prefixed byte slice.
func (e *Encoder) Blob(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// Ints appends a length-prefixed slice of int64 values.
func (e *Encoder) Ints(vs []int64) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.I64(v)
	}
}

// Decoder consumes primitive values from a message body. Decoding errors
// are sticky: after the first failure every subsequent read reports the
// original error, so message UnmarshalBody methods can decode
// unconditionally and check the error once.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder over body.
func NewDecoder(body []byte) *Decoder { return &Decoder{buf: body} }

// Err reports the first decoding error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining reports how many bytes have not been consumed.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail() {
	if d.err == nil {
		d.err = ErrShortMessage
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.fail()
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// Need reports whether at least n more bytes remain, marking the decoder
// failed otherwise. Collection decoders call it before allocating
// count-sized slices so a truncated or hostile count is an error, not a
// silent partial decode.
func (d *Decoder) Need(n int) bool {
	if d.err != nil {
		return false
	}
	if n < 0 || n > d.Remaining() {
		d.fail()
		return false
	}
	return true
}

// U8 reads a uint8.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a uint16.
func (d *Decoder) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads a uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// I64 reads an int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// F64 reads a float64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a bool.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	n := int(d.U32())
	b := d.take(n)
	return string(b)
}

// Blob reads a length-prefixed byte slice. The result is a copy so message
// structs do not alias transport buffers; zero-length blobs decode to nil
// so encode/decode round trips are identity on the struct level.
func (d *Decoder) Blob() []byte { return d.blob(false) }

// Payload reads a length-prefixed bulk payload. Above BatchableBodyLimit
// it aliases the decoder's buffer in place, with its capacity clipped so
// an append reallocates instead of overwriting the bytes that follow;
// such a payload arrived alone in its own frame, whose body nothing else
// reuses. At or below the limit it is copied like Blob: small payloads
// ride shared envelopes.
func (d *Decoder) Payload() []byte { return d.blob(true) }

func (d *Decoder) blob(inPlace bool) []byte {
	n := int(d.U32())
	if n == 0 {
		return nil
	}
	b := d.take(n)
	if b == nil {
		return nil
	}
	if inPlace && n > BatchableBodyLimit {
		return b[:n:n]
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// BlobView reads a length-prefixed byte slice without copying. Use only
// when the caller consumes the bytes before the frame buffer is reused.
func (d *Decoder) BlobView() []byte {
	n := int(d.U32())
	return d.take(n)
}

// Ints reads a length-prefixed slice of int64 values; zero-length slices
// decode to nil.
func (d *Decoder) Ints() []int64 {
	n := int(d.U32())
	if d.err != nil {
		return nil
	}
	if n == 0 {
		return nil
	}
	if n < 0 || n*8 > d.Remaining() {
		d.fail()
		return nil
	}
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = d.I64()
	}
	return vs
}
