package wire

import "testing"

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
	})
}
