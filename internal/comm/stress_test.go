package comm

import (
	"fmt"
	"sync"
	"testing"
)

// These tests lock in the race-cleanliness of the inproc dead-rank
// machinery: markDead (called from RunWorld's per-rank defer) races
// against concurrent Recv and Send on every other endpoint. They are
// meant to run under -race (scripts/check.sh does), and they repeat each
// world many times internally because the interesting interleavings —
// a rank dying between a peer's mailbox scan and its cond.Wait — are rare.

const tagStress = 11

// TestInprocDeadRankStress kills half the world early while the surviving
// ranks keep receiving from, and sending to, the dying ranks. Every
// surviving rank must see each dead rank's final messages (sent before
// death, so queued before markDead) and then get an error instead of
// hanging; sends to dead ranks must stay safe no-ops.
func TestInprocDeadRankStress(t *testing.T) {
	const (
		p      = 8
		rounds = 24
	)
	for it := 0; it < rounds; it++ {
		err := RunWorld(p, func(c Comm) error {
			r := c.Rank()
			if r < p/2 {
				// Dying half: one parting message to every survivor, then
				// exit immediately so markDead races their Recv loops.
				for dst := p / 2; dst < p; dst++ {
					if err := c.Send(dst, tagStress, []byte{byte(r)}); err != nil {
						return err
					}
				}
				return nil
			}
			// Surviving half: drain each dying rank — the guaranteed
			// parting message first, then Recv until the death error —
			// while poking the dying rank with sends the whole time.
			for src := 0; src < p/2; src++ {
				got, err := c.Recv(src, tagStress)
				if err != nil {
					return fmt.Errorf("rank %d lost the parting message of %d: %v", r, src, err)
				}
				if len(got) != 1 || got[0] != byte(src) {
					return fmt.Errorf("rank %d got corrupt payload %v from %d", r, got, src)
				}
				for {
					if err := c.Send(src, tagStress, []byte{0xFF}); err != nil {
						return fmt.Errorf("rank %d Send to dying rank %d failed: %v", r, src, err)
					}
					if _, err := c.Recv(src, tagStress); err != nil {
						break // dead-rank error: the expected outcome
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("iteration %d: %v", it, err)
		}
	}
}

// TestInprocPanicWakesPeers locks in the panic path of the same
// machinery: a panicking rank must be marked dead (via the RunWorld
// defers) so peers blocked in Recv on it fail fast instead of
// deadlocking, and its panic must surface as an error.
func TestInprocPanicWakesPeers(t *testing.T) {
	const p = 8
	for it := 0; it < 8; it++ {
		var blocked sync.WaitGroup
		blocked.Add(p - 1)
		err := RunWorld(p, func(c Comm) error {
			if c.Rank() == 0 {
				// Make it likely the peers are already parked in Recv.
				blocked.Wait()
				panic("rank 0 exploded")
			}
			blocked.Done()
			if _, err := c.Recv(0, tagStress); err == nil {
				return fmt.Errorf("rank %d: Recv from panicked rank succeeded", c.Rank())
			}
			return nil
		})
		if err == nil {
			t.Fatal("world error missing the panic")
		}
	}
}
