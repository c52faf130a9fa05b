package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestBreakdownAddAndTotal(t *testing.T) {
	var b Breakdown
	b.Add(FindBest, 10*time.Millisecond)
	b.Add(FindBest, 5*time.Millisecond)
	b.Add(SwapGhost, 1*time.Millisecond)
	if got := b.Durations[FindBest]; got != 15*time.Millisecond {
		t.Errorf("FindBest = %v", got)
	}
	if got := b.Total(); got != 16*time.Millisecond {
		t.Errorf("Total = %v", got)
	}
}

func TestPerIter(t *testing.T) {
	var b Breakdown
	b.Add(FindBest, 10*time.Millisecond)
	if b.PerIter(FindBest) != 0 {
		t.Error("PerIter with zero iters should be 0")
	}
	b.Iters = 5
	if got := b.PerIter(FindBest); got != 2*time.Millisecond {
		t.Errorf("PerIter = %v", got)
	}
}

func TestPhaseStrings(t *testing.T) {
	want := map[Phase]string{
		FindBest:           "FindBestCommunity",
		BroadcastDelegates: "BroadcastDelegates",
		SwapGhost:          "SwapGhostVertexState",
		Other:              "Other",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), s)
		}
	}
	if Phase(99).String() != "Phase(99)" {
		t.Error("unknown phase string")
	}
}

func TestBreakdownString(t *testing.T) {
	var b Breakdown
	b.Add(FindBest, time.Millisecond)
	s := b.String()
	for _, want := range []string{"FindBestCommunity=", "SwapGhostVertexState=", "Other="} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestTimerAccumulates(t *testing.T) {
	var b Breakdown
	tm := NewTimer(&b)
	tm.Start(FindBest)
	time.Sleep(2 * time.Millisecond)
	tm.Start(SwapGhost) // implicitly stops FindBest
	time.Sleep(time.Millisecond)
	tm.Stop()
	tm.Stop() // double stop is a no-op
	// time.Sleep guarantees a lower bound and nothing else: under load either
	// phase may run arbitrarily long, so only the bounds are asserted.
	if got := b.Durations[FindBest]; got < 2*time.Millisecond {
		t.Errorf("FindBest recorded %v, want >= 2ms", got)
	}
	if got := b.Durations[SwapGhost]; got < time.Millisecond {
		t.Errorf("SwapGhost recorded %v, want >= 1ms", got)
	}
}

func TestEventfDiscardsByDefault(t *testing.T) {
	// Must not panic or write anywhere with no sink installed.
	SetEventOutput(nil)
	Eventf("retry", "attempt %d", 3)
}

func TestEventfCapturesWithKindPrefix(t *testing.T) {
	var buf bytes.Buffer
	SetEventOutput(&buf)
	defer SetEventOutput(nil)
	Eventf("chaos", "dropped %d", 2)
	Eventf("peerdown", "rank %d\n", 1)
	want := "[chaos] dropped 2\n[peerdown] rank 1\n"
	if got := buf.String(); got != want {
		t.Errorf("Eventf output = %q, want %q", got, want)
	}
	SetEventOutput(nil)
	Eventf("chaos", "after reset")
	if got := buf.String(); got != want {
		t.Errorf("Eventf wrote after sink reset: %q", got)
	}
}
