package exec

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/store"
)

// ErrorClass partitions store errors by what retrying can achieve.
type ErrorClass uint8

const (
	// ClassTransient errors (injected write/read faults, unclassified
	// I/O hiccups) may succeed on retry.
	ClassTransient ErrorClass = iota
	// ClassPermanent errors (quota exhaustion, corrupt or missing
	// entries) cannot be fixed by retrying the identical operation; the
	// caller must degrade — fall back to an older checkpoint, replan,
	// fail over, or stop persisting.
	ClassPermanent
	// ClassFatal errors (fingerprint mismatch, malformed state payload)
	// mean the store holds state that is not this execution's; retrying
	// OR degrading would mask real damage, so the run must abort loudly.
	ClassFatal
)

// String names the class.
func (c ErrorClass) String() string {
	switch c {
	case ClassTransient:
		return "transient"
	case ClassPermanent:
		return "permanent"
	case ClassFatal:
		return "fatal"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// ClassifyStoreError maps a store error to its class. Unknown errors
// classify transient: a real I/O hiccup deserves its retries, and the
// retry budget bounds the damage of misclassifying.
func ClassifyStoreError(err error) ErrorClass {
	switch {
	case errors.Is(err, ErrFingerprint) || errors.Is(err, errState):
		return ClassFatal
	case errors.Is(err, store.ErrFenced):
		// A higher-epoch lease fenced this write: another executor owns
		// the run now. Retrying or degrading would interleave two
		// writers' histories — the zombie must abort loudly.
		return ClassFatal
	case errors.Is(err, store.ErrLeaseExpired), errors.Is(err, store.ErrLeaseHeld):
		// The lease could not be confirmed (or is briefly held): nothing
		// proves a competing writer, so retrying re-validates — and a
		// renewal riding a healed partition succeeds.
		return ClassTransient
	case errors.Is(err, store.ErrTimeout):
		// A remote operation that missed its deadline — lost message,
		// partition window, or a slow link. Partitions heal: retry, back
		// off, ride the window out on the degradation ladder. A quorum
		// error whose representative cause is a timeout lands here too.
		return ClassTransient
	case errors.Is(err, store.ErrQuota),
		errors.Is(err, store.ErrCorrupt),
		errors.Is(err, store.ErrNotFound):
		return ClassPermanent
	default:
		return ClassTransient
	}
}

// RetryPolicy decides, after each failed store attempt, whether to try
// again and how much virtual time to back off first. Policies must be
// deterministic (no jitter, no wall clock): backoff delays are folded
// into the executor's virtual clock and persisted accounting, so a
// replayed run must compute the identical delays.
type RetryPolicy interface {
	// Name identifies the policy in summaries and benchmarks.
	Name() string
	// Backoff is called after the attempt-th failure (1-based) with the
	// virtual-time overhead already spent on this operation (latency of
	// failed attempts plus earlier backoffs). It returns the delay to
	// serve before the next attempt and whether to retry at all.
	Backoff(attempt int, spent float64) (delay float64, retry bool)
}

// NoRetry gives up after the first failure.
type NoRetry struct{}

// Name identifies the policy.
func (NoRetry) Name() string { return "none" }

// Backoff never retries.
func (NoRetry) Backoff(int, float64) (float64, bool) { return 0, false }

// FixedRetry retries up to Attempts times with no backoff.
type FixedRetry struct {
	// Attempts is the number of RETRIES after the first failure.
	Attempts int
}

// Name identifies the policy.
func (p FixedRetry) Name() string { return fmt.Sprintf("fixed:%d", p.Attempts) }

// Backoff retries immediately while attempts remain.
func (p FixedRetry) Backoff(attempt int, _ float64) (float64, bool) {
	return 0, attempt <= p.Attempts
}

// ExpBackoff is capped exponential backoff in virtual time: retry k
// (1-based) waits min(Base·Factor^(k−1), Cap) before the next attempt,
// up to MaxAttempts retries and a total per-operation overhead Budget.
// It is deliberately jitter-free: determinism outranks thundering-herd
// etiquette inside a replayable virtual clock.
type ExpBackoff struct {
	// Base is the first retry's delay (virtual time units).
	Base float64
	// Factor multiplies the delay each further retry (≤ 0 means 2).
	Factor float64
	// Cap bounds a single delay; 0 means uncapped.
	Cap float64
	// MaxAttempts bounds retries; 0 means 8.
	MaxAttempts int
	// Budget bounds the operation's total overhead (spent + next delay);
	// 0 means unbounded.
	Budget float64
}

// Name identifies the policy.
func (p ExpBackoff) Name() string { return "exp" }

// Backoff computes the capped exponential delay and every stop rule.
func (p ExpBackoff) Backoff(attempt int, spent float64) (float64, bool) {
	max := p.MaxAttempts
	if max <= 0 {
		max = 8
	}
	if attempt > max {
		return 0, false
	}
	factor := p.Factor
	if factor <= 0 {
		factor = 2
	}
	delay := p.Base * math.Pow(factor, float64(attempt-1))
	if p.Cap > 0 && delay > p.Cap {
		delay = p.Cap
	}
	if p.Budget > 0 && spent+delay > p.Budget {
		return 0, false
	}
	return delay, true
}

var (
	_ RetryPolicy = NoRetry{}
	_ RetryPolicy = FixedRetry{}
	_ RetryPolicy = ExpBackoff{}
)
