package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Wire v3 Batch envelope: one FrameBatch frame carrying a sequence of
// ordinary request or response frames. Coalescing bursts of small control
// messages into one frame (and one syscall) amortizes the per-frame header
// and per-write overhead that dominates the pipelined command path once
// round trips are gone. The envelope changes nothing about the messages
// inside it: receivers unpack the sub-frames and feed them to the exact
// same dispatch path, in envelope order, so the pipeline's
// wire-order-equals-execution-order invariant is untouched.

// Batching thresholds. They bound how much a coalescing writer packs into
// one envelope; receivers accept any envelope up to MaxFrameSize.
const (
	// MaxBatchMessages caps the sub-frames per envelope.
	MaxBatchMessages = 64

	// MaxBatchBytes caps the accumulated sub-frame body bytes per
	// envelope; a run of messages is flushed once it crosses this.
	MaxBatchBytes = 64 << 10

	// BatchableBodyLimit is the largest body a frame may have and still
	// ride in an envelope. Bulk-data frames above it are written alone:
	// they amortize their own syscall, and keeping them out of envelopes
	// bounds envelope size.
	BatchableBodyLimit = 16 << 10
)

// Batch-envelope errors.
var (
	ErrNestedBatch = errors.New("protocol: nested batch frame")
	ErrBadBatch    = errors.New("protocol: malformed batch frame")
)

// batchSubHeader is the per-sub-frame overhead inside an envelope:
// kind (1) + reqID (8) + op (2) + body length (4).
const batchSubHeader = 1 + 8 + 2 + 4

// AppendBatch appends one Batch envelope frame carrying subs, in order, to
// buf and returns the extended slice. The header, the sub-frame count and
// every sub-frame are written straight into buf, so each body is copied
// exactly once; coalescing writers pass a reused output buffer. Sub-frames
// must themselves be plain (non-batch) frames.
func AppendBatch(buf []byte, subs []*Frame) ([]byte, error) {
	size := 4
	for _, f := range subs {
		if f.Kind == FrameBatch {
			return buf, ErrNestedBatch
		}
		size += batchSubHeader + len(f.Body)
	}
	if size > MaxFrameSize {
		return buf, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, size)
	}
	buf = slices.Grow(buf, headerSize+size)
	buf = appendHeader(buf, FrameBatch, 0, OpBatch, size)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(subs)))
	for _, f := range subs {
		buf = append(buf, byte(f.Kind))
		buf = binary.BigEndian.AppendUint64(buf, f.ReqID)
		buf = binary.BigEndian.AppendUint16(buf, uint16(f.Op))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(f.Body)))
		buf = append(buf, f.Body...)
	}
	return buf, nil
}

// EncodeBatch packs subs into one Batch envelope frame, preserving order:
// AppendBatch for callers that want the envelope as a Frame (the
// benchmark's codec replay re-encodes captured traffic through it).
func EncodeBatch(subs []*Frame) (*Frame, error) {
	buf, err := AppendBatch(nil, subs)
	if err != nil {
		return nil, err
	}
	return &Frame{Kind: FrameBatch, Op: OpBatch, Body: buf[headerSize:]}, nil
}

// DecodeBatch unpacks a Batch envelope into its sub-frames, in order.
// Nested envelopes, truncated bodies, hostile counts and trailing garbage
// are all errors: an envelope that does not parse exactly poisons the
// connection's framing, so the caller must drop the connection.
func DecodeBatch(f *Frame) ([]*Frame, error) {
	if f.Kind != FrameBatch {
		return nil, fmt.Errorf("%w: frame kind %d is not a batch", ErrBadBatch, f.Kind)
	}
	d := NewDecoder(f.Body)
	n := int(d.U32())
	if !d.Need(n * batchSubHeader) {
		return nil, fmt.Errorf("%w: count %d exceeds body", ErrBadBatch, n)
	}
	subs := make([]*Frame, 0, n)
	for i := 0; i < n; i++ {
		sub := &Frame{
			Kind:  FrameKind(d.U8()),
			ReqID: d.U64(),
			Op:    Op(d.U16()),
			// Bodies alias the envelope buffer (BlobView): sub-frames go
			// straight into the dispatch path that plain frames take, and
			// the envelope buffer is never reused, so skipping the copy
			// keeps the per-message overhead this layer exists to remove.
			Body: d.BlobView(),
		}
		if d.Err() != nil {
			return nil, fmt.Errorf("%w: sub-frame %d: %v", ErrBadBatch, i, d.Err())
		}
		if sub.Kind == FrameBatch {
			return nil, ErrNestedBatch
		}
		subs = append(subs, sub)
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadBatch, d.Remaining())
	}
	return subs, nil
}
