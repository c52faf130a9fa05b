package comm

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/wire"
)

func TestRunWorldBasicExchange(t *testing.T) {
	err := RunWorld(4, func(c Comm) error {
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() - 1 + c.Size()) % c.Size()
		msg := []byte(fmt.Sprintf("from-%d", c.Rank()))
		if err := c.Send(next, 0, msg); err != nil {
			return err
		}
		got, err := c.Recv(prev, 0)
		if err != nil {
			return err
		}
		want := fmt.Sprintf("from-%d", prev)
		if string(got) != want {
			return fmt.Errorf("rank %d got %q, want %q", c.Rank(), got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWorldSizeOne(t *testing.T) {
	err := RunWorld(1, func(c Comm) error {
		if c.Size() != 1 || c.Rank() != 0 {
			return fmt.Errorf("bad world: rank %d size %d", c.Rank(), c.Size())
		}
		// self-send works
		if err := c.Send(0, 5, []byte("x")); err != nil {
			return err
		}
		got, err := c.Recv(0, 5)
		if err != nil {
			return err
		}
		if string(got) != "x" {
			return fmt.Errorf("self message = %q", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWorldInvalidSize(t *testing.T) {
	if err := RunWorld(0, func(Comm) error { return nil }); err == nil {
		t.Fatal("expected error for world size 0")
	}
}

func TestRunWorldPropagatesErrors(t *testing.T) {
	sentinel := errors.New("rank failure")
	err := RunWorld(3, func(c Comm) error {
		if c.Rank() == 1 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapping %v", err, sentinel)
	}
}

func TestRunWorldRecoversPanic(t *testing.T) {
	err := RunWorld(2, func(c Comm) error {
		if c.Rank() == 0 {
			panic("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected panic to surface as error")
	}
}

func TestTagMatching(t *testing.T) {
	err := RunWorld(2, func(c Comm) error {
		if c.Rank() == 0 {
			// send tag 2 first, then tag 1
			if err := c.Send(1, 2, []byte("two")); err != nil {
				return err
			}
			return c.Send(1, 1, []byte("one"))
		}
		// receive in the opposite tag order
		one, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		two, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		if string(one) != "one" || string(two) != "two" {
			return fmt.Errorf("tag matching broken: %q %q", one, two)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFIFOPerPair(t *testing.T) {
	const n = 100
	err := RunWorld(2, func(c Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				b := wire.NewBuffer(8)
				b.PutU64(uint64(i))
				if err := c.Send(1, 7, b.Bytes()); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			got, err := c.Recv(0, 7)
			if err != nil {
				return err
			}
			if v := wire.NewReader(got).U64(); v != uint64(i) {
				return fmt.Errorf("out of order: got %d at position %d", v, i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	err := RunWorld(2, func(c Comm) error {
		if c.Rank() == 0 {
			buf := []byte("original")
			if err := c.Send(1, 0, buf); err != nil {
				return err
			}
			copy(buf, "clobber!")
			return c.Send(1, 1, nil) // sync point
		}
		got, err := c.Recv(0, 0)
		if err != nil {
			return err
		}
		if _, err := c.Recv(0, 1); err != nil {
			return err
		}
		if string(got) != "original" {
			return fmt.Errorf("payload aliased sender buffer: %q", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPeerRangeChecks(t *testing.T) {
	err := RunWorld(2, func(c Comm) error {
		if err := c.Send(5, 0, nil); err == nil {
			return errors.New("Send to rank 5 should fail")
		}
		if _, err := c.Recv(-1, 0); err == nil {
			return errors.New("Recv from rank -1 should fail")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStatsCounts(t *testing.T) {
	ws := WorldStats{PerRank: make([]Snapshot, 2)}
	err := RunWorld(2, func(c Comm) error {
		// Each rank snapshots its own counters after its last operation.
		defer func() { ws.PerRank[c.Rank()] = c.Stats().Snapshot() }()
		if c.Rank() == 0 {
			return c.Send(1, 0, make([]byte, 100))
		}
		_, err := c.Recv(0, 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if ws.PerRank[0].BytesSent != 100 || ws.PerRank[0].MsgsSent != 1 {
		t.Errorf("rank 0 stats = %+v", ws.PerRank[0])
	}
	if ws.PerRank[1].BytesRecv != 100 || ws.PerRank[1].MsgsRecv != 1 {
		t.Errorf("rank 1 stats = %+v", ws.PerRank[1])
	}
	if ws.TotalBytesSent() != 100 || ws.MaxBytesSent() != 100 {
		t.Errorf("aggregates: total %d max %d", ws.TotalBytesSent(), ws.MaxBytesSent())
	}
}

func worldSizes() []int { return []int{1, 2, 3, 4, 5, 7, 8, 16} }

func TestBarrierAllSizes(t *testing.T) {
	for _, p := range worldSizes() {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			var phase atomic.Int64
			err := RunWorld(p, func(c Comm) error {
				phase.Add(1)
				if err := Barrier(c); err != nil {
					return err
				}
				if got := phase.Load(); got != int64(p) {
					return fmt.Errorf("rank %d passed barrier with phase %d, want %d", c.Rank(), got, p)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBcastAllSizesAllRoots(t *testing.T) {
	for _, p := range worldSizes() {
		for root := 0; root < p; root += max(1, p/3) {
			p, root := p, root
			t.Run(fmt.Sprintf("p=%d/root=%d", p, root), func(t *testing.T) {
				payload := []byte(fmt.Sprintf("payload-from-%d", root))
				err := RunWorld(p, func(c Comm) error {
					var in []byte
					if c.Rank() == root {
						in = payload
					}
					got, err := Bcast(c, root, in)
					if err != nil {
						return err
					}
					if string(got) != string(payload) {
						return fmt.Errorf("rank %d got %q", c.Rank(), got)
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

func TestBcastInvalidRoot(t *testing.T) {
	err := RunWorld(2, func(c Comm) error {
		_, err := Bcast(c, 9, nil)
		if err == nil {
			return errors.New("expected error for invalid root")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceSumsAllSizes(t *testing.T) {
	for _, p := range worldSizes() {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			wantF := float64(p*(p-1)) / 2
			wantI := int64(p * (p - 1) / 2)
			err := RunWorld(p, func(c Comm) error {
				f, err := AllreduceFloat64Sum(c, float64(c.Rank()))
				if err != nil {
					return err
				}
				if f != wantF {
					return fmt.Errorf("rank %d float sum = %g, want %g", c.Rank(), f, wantF)
				}
				i, err := AllreduceInt64Sum(c, int64(c.Rank()))
				if err != nil {
					return err
				}
				if i != wantI {
					return fmt.Errorf("rank %d int sum = %d, want %d", c.Rank(), i, wantI)
				}
				m, err := allreduceScalar(c, laneMaxI64, uint64(c.Rank()*10))
				if err != nil {
					return err
				}
				if m != uint64((p-1)*10) {
					return fmt.Errorf("rank %d max = %d, want %d", c.Rank(), m, (p-1)*10)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAllgatherAllSizes(t *testing.T) {
	for _, p := range worldSizes() {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			err := RunWorld(p, func(c Comm) error {
				mine := []byte(fmt.Sprintf("r%d", c.Rank()))
				all, err := Allgather(c, mine)
				if err != nil {
					return err
				}
				if len(all) != p {
					return fmt.Errorf("got %d pieces", len(all))
				}
				for r := 0; r < p; r++ {
					if string(all[r]) != fmt.Sprintf("r%d", r) {
						return fmt.Errorf("all[%d] = %q", r, all[r])
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAlltoallvAllSizes(t *testing.T) {
	for _, p := range worldSizes() {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			err := RunWorld(p, func(c Comm) error {
				out := make([][]byte, p)
				for dst := 0; dst < p; dst++ {
					out[dst] = []byte(fmt.Sprintf("%d->%d", c.Rank(), dst))
				}
				in, err := Alltoallv(c, out)
				if err != nil {
					return err
				}
				for src := 0; src < p; src++ {
					want := fmt.Sprintf("%d->%d", src, c.Rank())
					if string(in[src]) != want {
						return fmt.Errorf("in[%d] = %q, want %q", src, in[src], want)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAlltoallvFuncStartsNoGoroutine bounds the live goroutines inside
// every callback of a P = 32 world by the count before the world started,
// plus its P rank goroutines, plus a small slack: the exchange receives on
// the calling goroutine, so it adds none of its own. A receiver goroutine
// per peer would add up to P·(P − 1).
func TestAlltoallvFuncStartsNoGoroutine(t *testing.T) {
	const p, slack = 32, 4
	limit := runtime.NumGoroutine() + p + slack
	err := RunWorld(p, func(c Comm) error {
		out := make([][]byte, p)
		for dst := range out {
			out[dst] = []byte{byte(c.Rank()), byte(dst)}
		}
		return AlltoallvFunc(c, out, func(int, []byte) error {
			if n := runtime.NumGoroutine(); n > limit {
				return fmt.Errorf("%d goroutines live inside a callback, want at most %d", n, limit)
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallvWrongLength(t *testing.T) {
	err := RunWorld(2, func(c Comm) error {
		if _, err := Alltoallv(c, make([][]byte, 1)); err == nil {
			return errors.New("expected length error")
		}
		// complete the collective correctly so both ranks exit
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGather(t *testing.T) {
	p := 6
	root := 2
	err := RunWorld(p, func(c Comm) error {
		mine := []byte{byte(c.Rank())}
		out, err := Gather(c, root, mine)
		if err != nil {
			return err
		}
		if c.Rank() != root {
			if out != nil {
				return errors.New("non-root got data")
			}
			return nil
		}
		for r := 0; r < p; r++ {
			if len(out[r]) != 1 || out[r][0] != byte(r) {
				return fmt.Errorf("out[%d] = %v", r, out[r])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectivesComposeUnderLoad(t *testing.T) {
	// Randomized sequence of collectives, all ranks in lockstep; verifies
	// there is no cross-talk between consecutive operations.
	p := 8
	rounds := 30
	err := RunWorld(p, func(c Comm) error {
		rng := rand.New(rand.NewSource(99)) // same sequence on every rank
		for i := 0; i < rounds; i++ {
			switch rng.Intn(4) {
			case 0:
				if err := Barrier(c); err != nil {
					return err
				}
			case 1:
				root := rng.Intn(p)
				var in []byte
				if c.Rank() == root {
					in = []byte{byte(i)}
				}
				got, err := Bcast(c, root, in)
				if err != nil {
					return err
				}
				if len(got) != 1 || got[0] != byte(i) {
					return fmt.Errorf("round %d bcast got %v", i, got)
				}
			case 2:
				s, err := AllreduceInt64Sum(c, 1)
				if err != nil {
					return err
				}
				if s != int64(p) {
					return fmt.Errorf("round %d sum = %d", i, s)
				}
			case 3:
				out := make([][]byte, p)
				for d := 0; d < p; d++ {
					out[d] = []byte{byte(c.Rank()), byte(d), byte(i)}
				}
				in, err := Alltoallv(c, out)
				if err != nil {
					return err
				}
				for s := 0; s < p; s++ {
					if in[s][0] != byte(s) || in[s][1] != byte(c.Rank()) || in[s][2] != byte(i) {
						return fmt.Errorf("round %d alltoallv in[%d] = %v", i, s, in[s])
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeadRankUnblocksPeers(t *testing.T) {
	// A rank that exits early (here: by error) must not deadlock peers
	// blocked on receiving from it; their Recv fails instead.
	err := RunWorld(3, func(c Comm) error {
		if c.Rank() == 2 {
			return errors.New("rank 2 dies before sending")
		}
		if _, err := c.Recv(2, 0); err == nil {
			return errors.New("Recv from dead rank should fail")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "rank 2 dies") {
		t.Fatalf("err = %v", err)
	}
}

func TestPanickedRankUnblocksPeers(t *testing.T) {
	err := RunWorld(2, func(c Comm) error {
		if c.Rank() == 1 {
			panic("rank 1 explodes")
		}
		if _, err := c.Recv(1, 0); err == nil {
			return errors.New("Recv from panicked rank should fail")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v", err)
	}
}

func TestMessagesFromDeadRankStillDeliverable(t *testing.T) {
	// A message sent before the rank exits must still be receivable.
	err := RunWorld(2, func(c Comm) error {
		if c.Rank() == 1 {
			return c.Send(0, 0, []byte("parting gift"))
		}
		got, err := c.Recv(1, 0)
		if err != nil {
			return err
		}
		if string(got) != "parting gift" {
			return fmt.Errorf("got %q", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
