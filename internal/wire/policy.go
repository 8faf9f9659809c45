package wire

import (
	"math/rand"

	"microp4/internal/obs"
)

// The one retry policy, in virtual ticks.
const (
	// Timeout is how long a Caller awaits a reply before retrying.
	Timeout = 64
	// DefaultMaxAttempts bounds the sends per request, first included.
	DefaultMaxAttempts = 8

	// Retry n waits in [d/2, d] for d = min(backoffCap,
	// backoffBase·backoffMult^(n-1)).
	backoffBase = 16
	backoffCap  = 1024
	backoffMult = 2

	// breakerThreshold consecutive timeouts open a channel's breaker;
	// it admits a half-open probe breakerOpenFor ticks later.
	breakerThreshold = 5
	breakerOpenFor   = 512

	// DedupWindow is how many replies an agent keeps per session.
	DedupWindow = 128
)

// backoff returns the delay before retry number attempt (1-based),
// drawing jitter from rng: capped exponential with "equal jitter", half
// deterministic and half drawn — randomized enough to de-synchronize
// retry storms, bounded enough to keep worst-case convergence time
// predictable. The rng is the caller's private seeded stream, consumed
// in deterministic order by the single-threaded run loop: identical
// seed ⇒ identical jitter ⇒ identical retry schedule.
func backoff(attempt int, rng *rand.Rand) uint64 {
	top := uint64(backoffBase)
	for i := 1; i < attempt && top < backoffCap; i++ {
		top *= backoffMult
	}
	top = min(top, backoffCap)
	half := top / 2
	return half + uint64(rng.Int63n(int64(top-half)+1))
}

// BreakerState is a circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed: requests flow normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the channel failed repeatedly; requests are held
	// back until the reopen deadline to avoid hammering a partitioned
	// or overwhelmed peer.
	BreakerOpen
	// BreakerHalfOpen: one probe request is allowed through; its
	// outcome decides between closing and re-opening.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// breaker is a per-channel circuit breaker on the network's virtual
// clock. Single-threaded with the netsim run loop, like everything in
// the caller.
type breaker struct {
	state    BreakerState
	failures int
	openedAt uint64
	gauge    *obs.Gauge // nil-safe
}

func (b *breaker) set(s BreakerState) {
	b.state = s
	b.gauge.Set(int64(s))
}

// allow reports whether a send may go out now. An open breaker past its
// reopen deadline transitions to half-open and admits one probe.
func (b *breaker) allow(now uint64) bool {
	switch b.state {
	case BreakerOpen:
		if now >= b.retryAt() {
			b.set(BreakerHalfOpen)
			return true
		}
		return false
	case BreakerHalfOpen:
		// One probe at a time: the probe that flipped the breaker
		// half-open is in flight; hold the rest.
		return false
	}
	return true
}

// retryAt returns the earliest tick a held-back send should retry.
func (b *breaker) retryAt() uint64 { return b.openedAt + breakerOpenFor }

// success records a reply: any reply proves the channel works.
func (b *breaker) success() {
	b.failures = 0
	if b.state != BreakerClosed {
		b.set(BreakerClosed)
	}
}

// failure records a timeout at the given tick.
func (b *breaker) failure(now uint64) {
	b.failures++
	switch b.state {
	case BreakerClosed:
		if b.failures >= breakerThreshold {
			b.openedAt = now
			b.set(BreakerOpen)
		}
	case BreakerHalfOpen:
		// The probe failed: back to open, with a fresh deadline.
		b.openedAt = now
		b.set(BreakerOpen)
	}
}
