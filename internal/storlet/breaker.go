package storlet

import (
	"hash/fnv"
	"math/rand"
	"sync"
)

// BreakerPolicy configures the per-filter circuit breaker. The breaker is
// count-based, not clock-based: it opens after Threshold consecutive
// countable failures and schedules its half-open probe after a number of
// *refused invocations* drawn from a seeded RNG (Cooldown + [0,Jitter]).
// Counting refusals instead of wall-clock time keeps chaos tests fully
// deterministic — the same request sequence always probes at the same
// point — matching internal/faultinject's discipline of sequence numbers
// over clocks.
type BreakerPolicy struct {
	// Threshold is the number of consecutive countable failures that opens
	// the breaker. Zero disables the breaker entirely (the default: the
	// engine behaves exactly as before this policy existed).
	Threshold int
	// Cooldown is the base number of refused invocations an open breaker
	// absorbs before admitting a half-open probe. Defaults to 4.
	Cooldown int
	// Jitter is the maximum extra refusals added to Cooldown, drawn from
	// the seeded RNG on every open transition so repeated opens do not
	// probe in lock-step across filters. Defaults to 2.
	Jitter int
	// Seed seeds the jitter RNG (combined with the filter name so distinct
	// filters de-synchronize). Defaults to 1.
	Seed int64
}

func (p BreakerPolicy) withDefaults() BreakerPolicy {
	if p.Cooldown <= 0 {
		p.Cooldown = 4
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	} else if p.Jitter == 0 {
		p.Jitter = 2
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// Breaker states.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is the per-filter circuit breaker instance. All methods are safe
// for concurrent use.
type breaker struct {
	mu     sync.Mutex
	policy BreakerPolicy
	rng    *rand.Rand

	state      int
	fails      int // consecutive countable failures while closed
	refused    int // refusals since the breaker opened
	probeAfter int // refusals to absorb before the next half-open probe
	opens      int64
}

func fnv64a(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

func newBreaker(name string, p BreakerPolicy) *breaker {
	p = p.withDefaults()
	return &breaker{
		policy: p,
		rng:    rand.New(rand.NewSource(p.Seed ^ int64(fnv64a(name)))),
	}
}

// admit decides whether an invocation may proceed. probe is true when the
// invocation is a half-open probe: its outcome alone decides whether the
// breaker closes again or re-opens.
func (b *breaker) admit() (admitted, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true, false
	case breakerHalfOpen:
		// A probe is already in flight; refuse until it reports.
		return false, false
	default: // breakerOpen
		b.refused++
		if b.refused >= b.probeAfter {
			b.state = breakerHalfOpen
			return true, true
		}
		return false, false
	}
}

// open transitions to the open state and draws the refusal budget for the
// next probe. Caller holds b.mu.
func (b *breaker) open() {
	b.state = breakerOpen
	b.fails = 0
	b.refused = 0
	b.probeAfter = b.policy.Cooldown + b.rng.Intn(b.policy.Jitter+1)
	b.opens++
}

// record reports the outcome of an admitted invocation. countable is false
// for failures that say nothing about the filter's health (their class in
// Failures does not count, or an upstream chain stage failed first); those
// never trip the breaker, but a probe that ends uncountably re-arms the
// open state so the next refusal retries the probe immediately.
func (b *breaker) record(err error, probe, countable bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		switch {
		case err == nil:
			b.state = breakerClosed
			b.fails = 0
		case countable:
			b.open()
		default:
			// Inconclusive probe: stay open but let the very next
			// refusal promote another probe.
			b.state = breakerOpen
			b.refused = b.probeAfter
		}
		return
	}
	if err == nil {
		b.fails = 0
		return
	}
	if !countable || b.state != breakerClosed {
		return
	}
	b.fails++
	if b.fails >= b.policy.Threshold {
		b.open()
	}
}

func (b *breaker) openCount() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}
