package comm

import (
	"fmt"
	"testing"

	"repro/internal/wire"
)

func TestAllreduceRingAllSizes(t *testing.T) {
	for _, p := range worldSizes() {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			want := uint64(p * (p - 1) / 2)
			err := RunWorld(p, func(c Comm) error {
				b := wire.NewBuffer(8)
				b.PutU64(uint64(c.Rank()))
				out, err := AllreduceBytesRing(c, b.Bytes(), func(x, y []byte) []byte {
					s := wire.NewBuffer(8)
					s.PutU64(wire.NewReader(x).U64() + wire.NewReader(y).U64())
					return s.Bytes()
				})
				if err != nil {
					return err
				}
				if got := wire.NewReader(out).U64(); got != want {
					return fmt.Errorf("rank %d: sum = %d, want %d", c.Rank(), got, want)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAllreduceRingRepeated(t *testing.T) {
	// Consecutive ring allreduces must not cross-match (FIFO per pair).
	err := RunWorld(5, func(c Comm) error {
		for round := 1; round <= 10; round++ {
			b := wire.NewBuffer(8)
			b.PutU64(uint64(c.Rank() * round))
			out, err := AllreduceBytesRing(c, b.Bytes(), func(x, y []byte) []byte {
				s := wire.NewBuffer(8)
				s.PutU64(wire.NewReader(x).U64() + wire.NewReader(y).U64())
				return s.Bytes()
			})
			if err != nil {
				return err
			}
			want := uint64(10 * round) // (0+1+2+3+4)*round
			if got := wire.NewReader(out).U64(); got != want {
				return fmt.Errorf("round %d rank %d: %d != %d", round, c.Rank(), got, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
