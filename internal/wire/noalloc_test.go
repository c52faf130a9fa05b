package wire

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/analysis"
)

// TestNoallocAnnotations bounds every //perf:noalloc-annotated function of
// this package with a zero-allocation AllocsPerRun ceiling, keyed off the
// same annotation list the noalloc analyzer verifies statically
// (analysis.NoallocFuncs): the fixed-width Put* encoders and the scalar
// Reader decoders are the per-message hot path of every collective, so a
// regression here multiplies across ranks and iterations.
func TestNoallocAnnotations(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting under -short")
	}
	annotated, err := analysis.NoallocFuncs(".")
	if err != nil {
		t.Fatalf("reading //perf:noalloc annotations: %v", err)
	}

	buf := NewBuffer(64)
	// payload carries one value per scalar decoder, in the order the Reader
	// drivers below consume... each driver Resets first, so layout only has
	// to satisfy the first decode of each op.
	payload := func() []byte {
		b := NewBuffer(64)
		b.PutUvarint(300)
		return append([]byte(nil), b.Bytes()...)
	}()
	var rd Reader

	drivers := map[string]func(){
		"Buffer.Reset":            func() { buf.Reset() },
		"Buffer.PutUvarint":       func() { buf.Reset(); buf.PutUvarint(1 << 40) },
		"Buffer.PutVarint":        func() { buf.Reset(); buf.PutVarint(-(1 << 40)) },
		"Buffer.PutU32":           func() { buf.Reset(); buf.PutU32(0xdeadbeef) },
		"Buffer.PutU64":           func() { buf.Reset(); buf.PutU64(1 << 60) },
		"Buffer.PutF64":           func() { buf.Reset(); buf.PutF64(3.14159) },
		"Buffer.PutStrideDelta":   func() { buf.Reset(); buf.PutStrideDelta(3, 4003, 4) },
		"Buffer.PutScale":         func() { buf.Reset(); buf.PutScale(20) },
		"Buffer.PutScaledVarint":  func() { buf.Reset(); buf.PutScaledVarint(-3<<20, 20) },
		"Buffer.PutScaledUvarint": func() { buf.Reset(); buf.PutScaledUvarint(3<<20, 20) },
		"Scale":                   func() { Scale(3 << 20) },
		"Reader.Reset":            func() { rd.Reset(payload) },
		"Reader.Scale": func() {
			buf.Reset()
			buf.PutScale(20)
			rd.Reset(buf.Bytes())
			rd.Scale()
		},
		"Reader.ScaledVarint": func() {
			buf.Reset()
			buf.PutScaledVarint(-3<<20, 20)
			rd.Reset(buf.Bytes())
			rd.ScaledVarint(20, 1<<62)
		},
		"Reader.ScaledUvarint": func() {
			buf.Reset()
			buf.PutScaledUvarint(3<<20, 20)
			rd.Reset(buf.Bytes())
			rd.ScaledUvarint(20, 1<<62)
		},
		"Reader.StrideDelta": func() {
			buf.Reset()
			buf.PutStrideDelta(3, 4003, 4)
			rd.Reset(buf.Bytes())
			rd.StrideDelta(3, 4, 5000)
		},
		"Reader.SkipZero": func() { rd.Reset(payload); rd.SkipZero() },
		"Reader.Uvarint":  func() { rd.Reset(payload); rd.Uvarint() },
		"Reader.Varint": func() {
			buf.Reset()
			buf.PutVarint(-7)
			rd.Reset(buf.Bytes())
			rd.Varint()
		},
		"Reader.U32": func() {
			buf.Reset()
			buf.PutU32(42)
			rd.Reset(buf.Bytes())
			rd.U32()
		},
		"Reader.U64": func() {
			buf.Reset()
			buf.PutU64(42)
			rd.Reset(buf.Bytes())
			rd.U64()
		},
		"Reader.F64": func() {
			buf.Reset()
			buf.PutF64(2.5)
			rd.Reset(buf.Bytes())
			rd.F64()
		},
	}

	var table []string
	for name := range drivers {
		table = append(table, name)
	}
	sort.Strings(table)
	if fmt.Sprint(table) != fmt.Sprint(annotated) {
		t.Fatalf("driver table out of sync with //perf:noalloc annotations:\n  annotated: %v\n  drivers:   %v", annotated, table)
	}

	for _, name := range table {
		op := drivers[name]
		op() // settle one-time buffer growth before counting
		if got := testing.AllocsPerRun(10, op); got > 0 {
			t.Errorf("%s: %v allocs/op, //perf:noalloc promises 0", name, got)
		}
	}
}
