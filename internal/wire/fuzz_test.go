package wire

import (
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzReader exercises the decoder against arbitrary bytes: it must never
// panic or allocate absurdly, only set Err.
func FuzzReader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x80})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	b := NewBuffer(0)
	b.PutInts([]int{1, -2, 3})
	b.PutF64(1.5)
	f.Add(b.Bytes())
	f.Add(strideStream([]int{3, 7, 403}, 3, 4))
	f.Add([]byte{0x00, 0x01, 0x00}) // zero distance, then a repeated id
	// An Ints length prefix of 2⁶³: read first, it must fail, not wrap
	// negative and panic in make.
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
	f.Add([]byte{20, 0x02, 0x01}) // scale 20, then the weights 1 and −1
	f.Add([]byte{63, 0x02})       // a scale byte past MaxScale
	f.Fuzz(func(t *testing.T, data []byte) {
		// Ints first, so its length prefix is the stream's first uvarint.
		r := NewReader(data)
		if vs := r.Ints(); r.Err() == nil && len(vs) > len(data) {
			t.Fatalf("decoded %d ints from %d bytes", len(vs), len(data))
		}
		r.Reset(data)
		r.Uvarint()
		r.Varint()
		r.U32()
		r.U64()
		r.F64()
		r.Ints()
		// Err may or may not be set, but the reader must stay in bounds.
		if r.Remaining() < 0 {
			t.Fatal("negative remaining")
		}
		// A stride-delta stream over the same bytes: whatever they hold, an
		// id that comes back without error is above its predecessor, on the
		// stride and below the limit, and an error returns prev.
		const stride, limit = 4, 1 << 20
		r.Reset(data)
		prev := 1 - stride
		for r.Remaining() > 0 {
			if r.SkipZero() {
				continue
			}
			id := r.StrideDelta(prev, stride, limit)
			if r.Err() != nil {
				if id != prev {
					t.Fatalf("failed decode returned %d, want prev %d", id, prev)
				}
				break
			}
			if id <= prev || id >= limit || id%stride != 1 {
				t.Fatalf("decoded id %d after %d (stride %d, limit %d)", id, prev, stride, limit)
			}
			prev = id
		}
		// The same bytes as a scaled frame: a weight that decodes without
		// error is within the limit and on the scale, and a scale byte past
		// MaxScale fails with ErrScale.
		const wlim = 1 << 62
		r.Reset(data)
		sc := r.Scale()
		for r.Err() == nil && r.Remaining() > 0 {
			if w := r.ScaledVarint(sc, wlim); r.Err() == nil && (w > wlim || w < -wlim || w&(1<<sc-1) != 0) {
				t.Fatalf("decoded weight %d under scale %d", w, sc)
			}
		}
		if err := r.Err(); err != nil && len(data) > 0 && data[0] > MaxScale && !errors.Is(err, ErrScale) {
			t.Fatalf("scale byte %d refused with %v, want ErrScale", data[0], err)
		}
		// And as weights to round-trip: each 8-byte word, its low byte taken
		// as a shift, stands for one weight of a frame.
		var ws []int64
		for b := data; len(b) >= 8; b = b[8:] {
			v := int64(binary.LittleEndian.Uint64(b))
			ws = append(ws, (v>>26)<<(b[0]%26)) // within ±2⁶²
		}
		or := int64(0)
		for _, v := range ws {
			or |= v
		}
		s := Scale(or)
		enc := NewBuffer(0)
		enc.PutScale(s)
		for _, v := range ws {
			enc.PutScaledVarint(v, s)
		}
		r.Reset(enc.Bytes())
		if got := r.Scale(); got != s {
			t.Fatalf("scale %d came back as %d", s, got)
		}
		for i, v := range ws {
			if got := r.ScaledVarint(s, wlim); got != v || r.Err() != nil {
				t.Fatalf("weight %d: %d came back as %d (%v)", i, v, got, r.Err())
			}
		}
		if r.Remaining() != 0 {
			t.Fatalf("%d bytes left after the weights", r.Remaining())
		}
	})
}
