// Package wire implements compact binary encoding for inter-rank messages.
//
// All payloads exchanged through the comm layer are encoded with this
// package: little-endian fixed-width integers and floats, unsigned varints
// for counts, and a varint slice helper. The encoding is hand-rolled (no
// encoding/gob, no reflection) so that message sizes are predictable and the
// communication-volume statistics reported by the experiments are meaningful.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Buffer is an append-only encoder. The zero value is ready to use.
type Buffer struct {
	b []byte
}

// NewBuffer returns a Buffer with the given initial capacity.
func NewBuffer(capacity int) *Buffer {
	return &Buffer{b: make([]byte, 0, capacity)}
}

// Bytes returns the encoded bytes. The slice aliases the buffer's storage.
func (w *Buffer) Bytes() []byte { return w.b }

// Len returns the number of encoded bytes.
func (w *Buffer) Len() int { return len(w.b) }

// Reset discards the buffer contents but keeps the storage.
//
//perf:noalloc
func (w *Buffer) Reset() { w.b = w.b[:0] }

// Grow reserves room for n more bytes, so that a frame whose encoded length
// is known up front is appended without reallocating along the way.
func (w *Buffer) Grow(n int) { w.b = slices.Grow(w.b, n) }

// PutUvarint appends an unsigned varint.
//
//perf:noalloc
func (w *Buffer) PutUvarint(v uint64) {
	w.b = binary.AppendUvarint(w.b, v)
}

// UvarintLen returns the number of bytes PutUvarint appends for v.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// PutVarint appends a signed varint.
//
//perf:noalloc
func (w *Buffer) PutVarint(v int64) {
	w.b = binary.AppendVarint(w.b, v)
}

// PutU32 appends a fixed-width little-endian uint32.
//
//perf:noalloc
func (w *Buffer) PutU32(v uint32) {
	w.b = binary.LittleEndian.AppendUint32(w.b, v)
}

// PutU64 appends a fixed-width little-endian uint64.
//
//perf:noalloc
func (w *Buffer) PutU64(v uint64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, v)
}

// PutF64 appends a little-endian IEEE-754 float64.
//
//perf:noalloc
func (w *Buffer) PutF64(v float64) {
	w.PutU64(math.Float64bits(v))
}

// PutStrideDelta appends id as its distance above prev in units of stride:
// the encoding of an ascending id stream whose members share one residue
// modulo stride (stride 1: any ascending stream). Consecutive ids of such a
// stream are a few strides apart, so each costs about one byte where a plain
// varint costs about three. A stream starts from prev = residue − stride
// (−1 at stride 1). An id at or below prev, or off the stride, is a caller
// bug and panics: the decoder could not tell it from corruption.
//
//perf:noalloc
func (w *Buffer) PutStrideDelta(prev, id, stride int) {
	d := id - prev
	if d <= 0 || d%stride != 0 {
		badStride(prev, id, stride)
	}
	w.PutUvarint(uint64(d / stride))
}

func badStride(prev, id, stride int) {
	panic(fmt.Sprintf("wire: stride-delta id %d does not follow %d in steps of %d", id, prev, stride))
}

// PutInts appends a length-prefixed slice of int as varints.
func (w *Buffer) PutInts(vs []int) {
	w.PutUvarint(uint64(len(vs)))
	for _, v := range vs {
		w.PutVarint(int64(v))
	}
}

// Reader decodes values written by Buffer, in order.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over p.
func NewReader(p []byte) *Reader { return &Reader{b: p} }

// Reset re-points the Reader at p and clears its state, so hot paths can
// keep a Reader value on the stack instead of allocating one per message.
//
//perf:noalloc
func (r *Reader) Reset(p []byte) {
	r.b = p
	r.off = 0
	r.err = nil
}

// Err returns the first decoding error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated or corrupt message reading %s at offset %d (len %d)", what, r.off, len(r.b))
	}
}

// Uvarint reads an unsigned varint.
//
//perf:noalloc
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.off += n
	return v
}

// Varint reads a signed varint.
//
//perf:noalloc
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.off += n
	return v
}

// U32 reads a fixed-width uint32.
//
//perf:noalloc
func (r *Reader) U32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.b) {
		r.fail("u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

// U64 reads a fixed-width uint64.
//
//perf:noalloc
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// F64 reads a float64.
//
//perf:noalloc
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// StrideDelta reads an id written by PutStrideDelta with the same prev and
// stride. The result is above prev, congruent to it modulo stride and below
// limit by construction — a zero distance (a repeated or descending id) or
// one that reaches limit is corruption and sets Err — so a decoder that
// starts its stream at residue − stride needs no further range or residue
// check before indexing an array of limit entries. On error it returns prev.
//
//perf:noalloc
func (r *Reader) StrideDelta(prev, stride, limit int) int {
	d := r.Uvarint()
	if r.err != nil {
		return prev
	}
	if d == 0 || limit <= prev || d > uint64(limit-1-prev)/uint64(stride) {
		r.fail("stride delta")
		return prev
	}
	return prev + int(d)*stride
}

// SkipZero consumes the next byte if it is zero and reports whether it did.
// No stride-delta id starts with a zero byte (its distance is at least 1),
// so a zero byte can close one id stream and open the next.
//
//perf:noalloc
func (r *Reader) SkipZero() bool {
	if r.err != nil || r.off >= len(r.b) || r.b[r.off] != 0 {
		return false
	}
	r.off++
	return true
}

// Ints reads a length-prefixed slice of varint int.
func (r *Reader) Ints() []int {
	n := int(r.Uvarint())
	if r.err != nil || n == 0 {
		return nil
	}
	if n > r.Remaining() {
		r.fail("int slice length")
		return nil
	}
	vs := make([]int, n)
	for i := range vs {
		vs[i] = int(r.Varint())
	}
	if r.err != nil {
		return nil
	}
	return vs
}
