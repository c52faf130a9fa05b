package comm

import (
	"fmt"
	"strings"
	"testing"
)

// mangledReduce is a Comm whose inbound reduction frames pass through
// mangle — the stand-in for a peer (TCP input is outside input) that sends
// a record of the wrong length.
type mangledReduce struct {
	Comm
	mangle func([]byte) []byte
}

func (m mangledReduce) Recv(src, tag int) ([]byte, error) {
	b, err := m.Comm.Recv(src, tag)
	if err == nil && tag == tagReduce {
		b = m.mangle(b)
	}
	return b, err
}

// TestRecordReductionRejectsWrongLength drives every record reduction with
// truncated and over-long peer frames: each rank must get an error naming
// the received and the expected length — not a panic, not a result with
// the missing lanes read as zeros. P=3 adds the folded rank, which receives
// the final record without ever combining.
func TestRecordReductionRejectsWrongLength(t *testing.T) {
	mangles := []struct {
		name  string
		delta int
		fn    func([]byte) []byte
	}{
		{"short", -1, func(b []byte) []byte { return b[:len(b)-1] }},
		{"long", +1, func(b []byte) []byte { return append(b[:len(b):len(b)], 0) }},
	}
	for _, p := range []int{2, 3} {
		calls := []struct {
			name string
			want int
			fn   func(Comm) error
		}{
			{"float64sum", 8, func(c Comm) error { _, err := AllreduceFloat64Sum(c, 1.5); return err }},
			{"iterstats", 32, func(c Comm) error {
				_, err := AllreduceIterStats(c, IterStats{Moved: 1, Work: 2, CommNS: 3, Q: 0.5})
				return err
			}},
			{"updatestats", 24, func(c Comm) error {
				_, err := AllreduceUpdateStats(c, UpdateStats{Moved: 1, Touched: 2, Q: 0.5})
				return err
			}},
		}
		for _, m := range mangles {
			for _, call := range calls {
				t.Run(fmt.Sprintf("p=%d/%s/%s", p, m.name, call.name), func(t *testing.T) {
					wantMsg := fmt.Sprintf("%d bytes, want %d", call.want+m.delta, call.want)
					err := RunWorld(p, func(c Comm) error {
						err := call.fn(mangledReduce{c, m.fn})
						if err == nil {
							return fmt.Errorf("rank %d: no error from a %s frame", c.Rank(), m.name)
						}
						if !strings.Contains(err.Error(), wantMsg) {
							return fmt.Errorf("rank %d: error %q does not name %q", c.Rank(), err, wantMsg)
						}
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}
