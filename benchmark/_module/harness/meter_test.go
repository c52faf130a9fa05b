package harness

import (
	"fmt"
	"testing"

	"repro/internal/comm"
)

// The meter and the endpoint it wraps count the same sends, to the byte,
// also when the streaming alltoall receives on several goroutines at once.
func TestMeterCountsEqualEndpointStats(t *testing.T) {
	const p = 4
	rec := NewRecorder()
	counts := make([]MeterCounts, p)
	inner := make([]comm.Snapshot, p)
	err := comm.RunWorld(p, func(c comm.Comm) error {
		parent := rec.Open("rank", NoSpan, c.Rank(), 0)
		m := NewMeter(c, rec, parent, 0)
		out := make([][]byte, p)
		for round := 0; round < 5; round++ {
			for dst := range out {
				out[dst] = make([]byte, 10*round+dst+m.Rank())
			}
			if _, err := comm.Alltoallv(m, out); err != nil {
				return err
			}
			err := comm.AlltoallvFunc(m, out, func(src int, payload []byte) error {
				if want := 10*round + m.Rank() + src; len(payload) != want {
					return fmt.Errorf("from %d: %d bytes, want %d", src, len(payload), want)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if _, err := comm.AllreduceInt64Sum(m, int64(round)); err != nil {
				return err
			}
		}
		rec.Close(parent)
		counts[c.Rank()] = m.Counts()
		inner[c.Rank()] = c.Stats().Snapshot()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var sends, recvs int64
	for r := range counts {
		if counts[r].Msgs != inner[r].MsgsSent || counts[r].Bytes != inner[r].BytesSent {
			t.Errorf("rank %d: meter %d msgs %d bytes, endpoint %d msgs %d bytes",
				r, counts[r].Msgs, counts[r].Bytes, inner[r].MsgsSent, inner[r].BytesSent)
		}
		if counts[r].Msgs == 0 {
			t.Errorf("rank %d sent nothing", r)
		}
		sends += inner[r].MsgsSent
		recvs += inner[r].MsgsRecv
	}
	var nSend, nRecv int64
	for _, s := range rec.Spans() {
		switch s.Name {
		case "comm.send":
			nSend++
		case "comm.recv":
			nRecv++
		}
	}
	if nSend != sends || nRecv != recvs {
		t.Errorf("spans: %d send %d recv; endpoints: %d sent %d received", nSend, nRecv, sends, recvs)
	}
}
