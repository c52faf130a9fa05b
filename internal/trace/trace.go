// Package trace provides the phase timers used to reproduce the paper's
// execution-time breakdown (Figure 8): each clustering iteration is split
// into Find Best Community, Broadcast Delegates, Swap Ghost Vertex State,
// and Other.
package trace

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// The package doubles as the sanctioned diagnostics sink for library code:
// packages under internal/ must not write to process-global streams (the
// noprint analyzer enforces this — experiment tables own stdout, and p
// ranks printing concurrently interleave into garbage), so runtime
// diagnostics go through Eventf, whose writer is injectable and serialized.

// Now returns the current wall-clock time. It exists so solver packages
// can take timestamps without calling time.Now directly: the nondet
// analyzer forbids raw wall-clock reads in solver code, and funneling them
// through this package keeps every sanctioned use auditable in one place.
// The contract is that wall clock feeds only reported timings — never an
// algorithmic decision.
func Now() time.Time { return time.Now() }

// Since returns the wall-clock time elapsed since t (see Now).
func Since(t time.Time) time.Duration { return time.Since(t) }

// Event stream. Events are high-volume runtime occurrences — fault
// injections, retries, reconnects — that are silenced by default and enabled
// by tests or operators chasing a robustness problem. Each line is prefixed
// with its kind so a capture can be grepped per event class.

var (
	eventMu  sync.Mutex
	eventOut io.Writer // nil = discard
)

// SetEventOutput directs Eventf to w; nil restores the default (discard).
func SetEventOutput(w io.Writer) {
	eventMu.Lock()
	defer eventMu.Unlock()
	eventOut = w
}

// Eventf records one event of the given kind (e.g. "retry", "chaos",
// "peerdown"). It is a no-op unless SetEventOutput installed a sink. Safe
// for concurrent use from multiple ranks.
func Eventf(kind, format string, args ...any) {
	eventMu.Lock()
	defer eventMu.Unlock()
	if eventOut == nil {
		return
	}
	fmt.Fprintf(eventOut, "[%s] ", kind)
	fmt.Fprintf(eventOut, format, args...)
	if !strings.HasSuffix(format, "\n") {
		io.WriteString(eventOut, "\n")
	}
}

// Phase identifies one component of a clustering iteration.
type Phase int

const (
	// FindBest is the local modularity-gain sweep.
	FindBest Phase = iota
	// BroadcastDelegates is the collective that agrees on delegate moves.
	BroadcastDelegates
	// SwapGhost is the ghost community-state exchange.
	SwapGhost
	// Other covers community bookkeeping, Σtot synchronization, and the
	// modularity reduction.
	Other

	numPhases
)

// NumPhases is the number of distinct phases.
const NumPhases = int(numPhases)

func (p Phase) String() string {
	switch p {
	case FindBest:
		return "FindBestCommunity"
	case BroadcastDelegates:
		return "BroadcastDelegates"
	case SwapGhost:
		return "SwapGhostVertexState"
	case Other:
		return "Other"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Breakdown accumulates time per phase.
type Breakdown struct {
	Durations [NumPhases]time.Duration
	Iters     int
}

// Add accumulates d into phase p.
func (b *Breakdown) Add(p Phase, d time.Duration) {
	b.Durations[p] += d
}

// Total returns the summed duration over all phases.
func (b *Breakdown) Total() time.Duration {
	var t time.Duration
	for _, d := range b.Durations {
		t += d
	}
	return t
}

// PerIter returns the mean per-iteration duration of phase p.
func (b *Breakdown) PerIter(p Phase) time.Duration {
	if b.Iters == 0 {
		return 0
	}
	return b.Durations[p] / time.Duration(b.Iters)
}

// String formats the breakdown as a single line.
func (b *Breakdown) String() string {
	var sb strings.Builder
	for i := 0; i < NumPhases; i++ {
		if i > 0 {
			sb.WriteString(" ")
		}
		fmt.Fprintf(&sb, "%s=%v", Phase(i), b.Durations[i].Round(time.Microsecond))
	}
	return sb.String()
}

// Timer measures one phase at a time.
type Timer struct {
	b     *Breakdown
	phase Phase
	start time.Time
	open  bool
}

// NewTimer returns a Timer writing into b.
func NewTimer(b *Breakdown) *Timer { return &Timer{b: b} }

// Start begins timing phase p, closing any open phase first.
func (t *Timer) Start(p Phase) {
	t.Stop()
	t.phase = p
	t.start = time.Now()
	t.open = true
}

// Stop closes the open phase, if any.
func (t *Timer) Stop() {
	if t.open {
		t.b.Add(t.phase, time.Since(t.start))
		t.open = false
	}
}
