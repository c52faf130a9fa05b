package wire

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestRoundTripScalars(t *testing.T) {
	b := NewBuffer(0)
	b.PutUvarint(0)
	b.PutUvarint(300)
	b.PutUvarint(math.MaxUint64)
	b.PutVarint(-1)
	b.PutVarint(1 << 40)
	b.PutU32(0xdeadbeef)
	b.PutU64(42)
	b.PutF64(3.14159)
	b.PutF64(math.Inf(-1))

	r := NewReader(b.Bytes())
	if got := r.Uvarint(); got != 0 {
		t.Errorf("Uvarint = %d, want 0", got)
	}
	if got := r.Uvarint(); got != 300 {
		t.Errorf("Uvarint = %d, want 300", got)
	}
	if got := r.Uvarint(); got != math.MaxUint64 {
		t.Errorf("Uvarint = %d, want max", got)
	}
	if got := r.Varint(); got != -1 {
		t.Errorf("Varint = %d, want -1", got)
	}
	if got := r.Varint(); got != 1<<40 {
		t.Errorf("Varint = %d, want 1<<40", got)
	}
	if got := r.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.U64(); got != 42 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.F64(); got != 3.14159 {
		t.Errorf("F64 = %g", got)
	}
	if got := r.F64(); !math.IsInf(got, -1) {
		t.Errorf("F64 = %g, want -Inf", got)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", r.Remaining())
	}
}

func TestRoundTripSlices(t *testing.T) {
	b := NewBuffer(0)
	ints := []int{3, -4, 0, 1 << 40, -1 << 40}
	b.PutInts(ints)
	b.PutInts([]int{7})

	r := NewReader(b.Bytes())
	if got := r.Ints(); !reflect.DeepEqual(got, ints) {
		t.Errorf("Ints = %v, want %v", got, ints)
	}
	if got := r.Ints(); !reflect.DeepEqual(got, []int{7}) {
		t.Errorf("Ints = %v, want [7]", got)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
}

func TestEmptySlicesDecodeNil(t *testing.T) {
	b := NewBuffer(0)
	b.PutInts(nil)
	b.PutInts([]int{})
	r := NewReader(b.Bytes())
	for i := 0; i < 2; i++ {
		if got := r.Ints(); got != nil {
			t.Errorf("Ints = %v, want nil", got)
		}
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

func TestTruncatedInputs(t *testing.T) {
	b := NewBuffer(0)
	b.PutU64(12345)
	b.PutInts([]int{1, -2, 300})
	full := b.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		r.U64()
		r.Ints()
		if r.Err() == nil {
			t.Fatalf("truncation at %d/%d not detected", cut, len(full))
		}
	}
}

func TestCorruptSliceLength(t *testing.T) {
	// A declared length far beyond the remaining bytes must error, not
	// attempt a huge allocation.
	b := NewBuffer(0)
	b.PutUvarint(1 << 40)
	r := NewReader(b.Bytes())
	if got := r.Ints(); got != nil || r.Err() == nil {
		t.Fatalf("Ints on corrupt length: got %v err %v", got, r.Err())
	}
}

func TestErrorSticks(t *testing.T) {
	r := NewReader([]byte{0x80}) // incomplete varint
	r.Uvarint()
	if r.Err() == nil {
		t.Fatal("expected error")
	}
	first := r.Err()
	r.U64()
	r.Uvarint()
	if r.Err() != first {
		t.Fatalf("error replaced: %v -> %v", first, r.Err())
	}
}

func TestResetReuses(t *testing.T) {
	b := NewBuffer(16)
	b.PutU64(1)
	if b.Len() != 8 {
		t.Fatalf("Len = %d", b.Len())
	}
	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("Len after Reset = %d", b.Len())
	}
	b.PutU64(2)
	r := NewReader(b.Bytes())
	if got := r.U64(); got != 2 {
		t.Fatalf("U64 = %d, want 2", got)
	}
}

// TestGrowReservesExactFrame is the contract the merge's arc frames rely
// on: UvarintLen predicts PutUvarint at every width boundary, and a frame
// appended after Grow(its length) never moves the storage, whatever the
// buffer held before.
func TestGrowReservesExactFrame(t *testing.T) {
	b := NewBuffer(0)
	b.PutU32(7)
	want := b.Len()
	var vals []uint64
	for shift := 0; shift < 64; shift += 7 {
		vals = append(vals, 1<<shift-1, 1<<shift, 1<<shift+1)
	}
	vals = append(vals, 0, math.MaxUint64)
	for _, v := range vals {
		want += UvarintLen(v) + 8
	}
	b.Grow(want - b.Len())
	base := &b.Bytes()[0]
	for _, v := range vals {
		before := b.Len()
		b.PutUvarint(v)
		if got := b.Len() - before; got != UvarintLen(v) {
			t.Errorf("UvarintLen(%#x) = %d, PutUvarint wrote %d", v, UvarintLen(v), got)
		}
		b.PutF64(float64(v))
	}
	if b.Len() != want {
		t.Errorf("Len = %d, predicted %d", b.Len(), want)
	}
	if &b.Bytes()[0] != base {
		t.Error("the buffer reallocated inside its reserved length")
	}
}

func TestQuickRoundTripU64s(t *testing.T) {
	f := func(vs []uint64) bool {
		b := NewBuffer(0)
		for _, v := range vs {
			b.PutUvarint(v)
			b.PutU64(v)
		}
		r := NewReader(b.Bytes())
		for _, v := range vs {
			if r.Uvarint() != v || r.U64() != v {
				return false
			}
		}
		return r.Err() == nil && r.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRoundTripMixed(t *testing.T) {
	f := func(a int64, b float64, c uint32, d []int) bool {
		w := NewBuffer(0)
		w.PutVarint(a)
		w.PutF64(b)
		w.PutU32(c)
		w.PutInts(d)
		r := NewReader(w.Bytes())
		ga := r.Varint()
		gb := r.F64()
		gc := r.U32()
		gd := r.Ints()
		if r.Err() != nil || r.Remaining() != 0 {
			return false
		}
		if ga != a || gc != c {
			return false
		}
		if gb != b && !(math.IsNaN(gb) && math.IsNaN(b)) {
			return false
		}
		if len(d) == 0 {
			return gd == nil
		}
		return reflect.DeepEqual(gd, d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// strideStream encodes ids (ascending, all ≡ residue mod stride) the way the
// core exchanges do: the stream starts from residue − stride.
func strideStream(ids []int, residue, stride int) []byte {
	b := NewBuffer(0)
	prev := residue - stride
	for _, id := range ids {
		b.PutStrideDelta(prev, id, stride)
		prev = id
	}
	return b.Bytes()
}

func TestStrideDeltaRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		residue, stride, limit int
		ids                    []int
	}{
		{0, 1, 10, []int{0, 1, 5, 9}},
		{3, 4, 4000, []int{3, 7, 11, 1003, 3999}},
		{2, 3, 9, []int{8}},
		{63, 64, 1 << 40, []int{63, 127, 1<<40 - 1}},
		{0, 1, 1, nil},
	} {
		enc := strideStream(tc.ids, tc.residue, tc.stride)
		r := NewReader(enc)
		prev := tc.residue - tc.stride
		for _, want := range tc.ids {
			got := r.StrideDelta(prev, tc.stride, tc.limit)
			if got != want || r.Err() != nil {
				t.Fatalf("%+v: decoded %d (err %v), want %d", tc, got, r.Err(), want)
			}
			prev = got
		}
		if r.Remaining() != 0 {
			t.Errorf("%+v: %d bytes left over", tc, r.Remaining())
		}
	}
	// The point of the encoding: neighbours a few strides apart cost a byte.
	ids := make([]int, 1000)
	for i := range ids {
		ids[i] = 3 + 4*(5000+3*i)
	}
	if n := len(strideStream(ids, 3, 4)); n > len(ids)+2 {
		t.Errorf("1000 ids 3 strides apart took %d bytes", n)
	}
}

// TestStrideDeltaRejects covers both ends: the encoder refuses an id that
// does not follow prev on the stride (a caller bug), and the decoder turns
// a zero distance, an id at or past limit, and an overflowing distance into
// Err, returning prev so the caller indexes nothing new.
func TestStrideDeltaRejects(t *testing.T) {
	for _, bad := range [][3]int{{5, 5, 1}, {5, 4, 1}, {3, 8, 4}, {-1, -1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PutStrideDelta(prev=%d, id=%d, stride=%d) did not panic", bad[0], bad[1], bad[2])
				}
			}()
			NewBuffer(0).PutStrideDelta(bad[0], bad[1], bad[2])
		}()
	}
	dist := func(d uint64) []byte {
		b := NewBuffer(0)
		b.PutUvarint(d)
		return b.Bytes()
	}
	for _, tc := range []struct {
		name                string
		enc                 []byte
		prev, stride, limit int
	}{
		{"zero distance", dist(0), 7, 4, 100},
		{"reaches limit", dist(2), 1, 4, 9}, // 1 + 2·4 = 9
		{"past limit", dist(1000), -1, 1, 10},
		{"overflows int", dist(math.MaxUint64), -4, 4, math.MaxInt},
		{"prev already at limit", dist(1), 12, 4, 12},
		{"truncated", []byte{0x80}, -1, 1, 10},
	} {
		r := NewReader(tc.enc)
		if got := r.StrideDelta(tc.prev, tc.stride, tc.limit); r.Err() == nil || got != tc.prev {
			t.Errorf("%s: decoded %d with err %v, want prev %d and an error", tc.name, got, r.Err(), tc.prev)
		}
	}
	// The largest admissible id decodes.
	r := NewReader(dist(2))
	if got := r.StrideDelta(1, 4, 10); got != 9 || r.Err() != nil {
		t.Errorf("id limit−1: decoded %d, err %v", got, r.Err())
	}
}

func TestSkipZero(t *testing.T) {
	r := NewReader([]byte{0, 5, 0})
	if !r.SkipZero() || r.Remaining() != 2 {
		t.Fatal("leading zero byte not consumed")
	}
	if r.SkipZero() || r.Remaining() != 2 {
		t.Fatal("non-zero byte consumed")
	}
	if r.Uvarint() != 5 || !r.SkipZero() || r.SkipZero() || r.Err() != nil {
		t.Fatal("trailing zero byte / end of input mishandled")
	}
}

func TestQuickStrideDelta(t *testing.T) {
	f := func(gaps []uint16, strideRaw, residueRaw uint8) bool {
		stride := 1 + int(strideRaw%64)
		residue := int(residueRaw) % stride
		ids := make([]int, len(gaps))
		prev := residue - stride
		for i, g := range gaps {
			prev += (1 + int(g)) * stride
			ids[i] = prev
		}
		limit := prev + 1
		if limit < 1 {
			limit = 1
		}
		r := NewReader(strideStream(ids, residue, stride))
		prev = residue - stride
		for _, want := range ids {
			got := r.StrideDelta(prev, stride, limit)
			if got != want || got%stride != residue || got >= limit {
				return false
			}
			prev = got
		}
		return r.Err() == nil && r.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
