package comm

import (
	"errors"
	"fmt"
)

// Typed failure classes of the comm layer. Callers branch on these with
// errors.Is; every transport and helper wraps one of them so that a failed
// collective is diagnosable without string matching:
//
//   - ErrPeerDown: a peer exited, crashed, or its connection broke. The
//     world cannot complete another collective that involves that rank;
//     the clean reaction is to abort the rank's run and propagate.
//   - ErrClosed: this endpoint was closed locally while an operation was
//     in flight (e.g. a Recv pending across Close).
//   - ErrTimeout: a receive deadline (Options.CommDeadline /
//     SetRecvTimeout) expired before a matching message arrived. Either a
//     peer is stalled past the deadline or a message was lost.
//   - ErrRetriesExhausted: a retrying helper (Backoff.Retry, the TCP
//     dialer) gave up after its attempt/time budget.
//
// docs/ROBUSTNESS.md specifies the contract in full.
var (
	ErrPeerDown         = errors.New("peer down")
	ErrClosed           = errors.New("endpoint closed")
	ErrTimeout          = errors.New("recv deadline exceeded")
	ErrRetriesExhausted = errors.New("retries exhausted")
)

// TransientError marks a failure worth retrying (a refused dial while the
// peer's listener starts, a timed-out write, an injected chaos fault).
// Backoff.Retry retries only transient errors; everything else is
// propagated immediately.
type TransientError struct {
	Err error
}

func (e *TransientError) Error() string { return fmt.Sprintf("transient: %v", e.Err) }
func (e *TransientError) Unwrap() error { return e.Err }

// Transient wraps err as retryable. A nil err returns nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &TransientError{Err: err}
}

// IsTransient reports whether err is marked retryable.
func IsTransient(err error) bool {
	var te *TransientError
	return errors.As(err, &te)
}
