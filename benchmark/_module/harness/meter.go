package harness

import (
	"sync/atomic"
	"time"

	"repro/internal/comm"
)

// Meter wraps one rank's endpoint and counts, from outside the program,
// what passes through it: messages and bytes sent, time spent in Send, and
// time blocked in Recv. With a Recorder it also leaves a comm.send or
// comm.recv span, child of Parent, for every call. core.RunLayout builds
// its own world and cannot take a wrapped endpoint, so the traced run
// builds the world itself and hands each rank's Meter to core.NewSession.
//
// The streaming alltoall receives from p-1 goroutines of one rank at once,
// so the counters are atomic and receive spans of one rank may overlap.
type Meter struct {
	comm.Comm
	rec    *Recorder
	parent int
	rep    int

	msgs   atomic.Int64
	bytes  atomic.Int64
	sendNS atomic.Int64
	recvNS atomic.Int64
}

// NewMeter wraps c. rec may be nil (count only).
func NewMeter(c comm.Comm, rec *Recorder, parent, rep int) *Meter {
	return &Meter{Comm: c, rec: rec, parent: parent, rep: rep}
}

// Send forwards to the wrapped endpoint and meters the call.
func (m *Meter) Send(dst, tag int, data []byte) error {
	t0 := time.Now()
	//lint:ignore tagconst decorator forwards the caller's tag verbatim
	err := m.Comm.Send(dst, tag, data)
	t1 := time.Now()
	if err != nil {
		return err
	}
	m.msgs.Add(1)
	m.bytes.Add(int64(len(data)))
	m.sendNS.Add(int64(t1.Sub(t0)))
	m.rec.Add("comm.send", t0, t1, m.parent, m.Rank(), m.rep)
	return nil
}

// Recv forwards to the wrapped endpoint and meters the time it blocked.
func (m *Meter) Recv(src, tag int) ([]byte, error) {
	t0 := time.Now()
	//lint:ignore tagconst decorator forwards the caller's tag verbatim
	data, err := m.Comm.Recv(src, tag)
	t1 := time.Now()
	if err != nil {
		return nil, err
	}
	m.recvNS.Add(int64(t1.Sub(t0)))
	m.rec.Add("comm.recv", t0, t1, m.parent, m.Rank(), m.rep)
	return data, nil
}

// MeterCounts is what one rank's Meter saw.
type MeterCounts struct {
	Msgs, Bytes      int64
	SendTime, RecvWt time.Duration
}

// Counts returns the totals so far.
func (m *Meter) Counts() MeterCounts {
	return MeterCounts{
		Msgs: m.msgs.Load(), Bytes: m.bytes.Load(),
		SendTime: time.Duration(m.sendNS.Load()), RecvWt: time.Duration(m.recvNS.Load()),
	}
}
