// Package faultinject is the repository's deterministic chaos layer: it
// wraps the two seams of the object-store data path — the HTTP transport
// between compute and storage (Transport) and a node's storage engine
// (Store) — and injects failures according to a scriptable Schedule.
//
// Determinism is the whole point. A schedule is keyed by request count, not
// wall-clock time, and any randomness is drawn from a caller-seeded source
// at schedule-construction time (Generate), never at injection time. Two
// runs that issue the same operations in the same order therefore see the
// exact same failure sequence, so a chaos test that passes is a proof, and
// a chaos test that fails replays under the debugger.
//
// The fault model covers what a flaky 63-machine cluster actually does to a
// connector (paper §II; Stocator's fault taxonomy):
//
//   - ConnError  — the TCP connection never opens or resets before the
//     response: the request fails with no bytes exchanged.
//   - Status     — the server answers with a retriable error status
//     (5xx/429/408) instead of servicing the request.
//   - Latency    — the request is delayed before being forwarded (slow
//     disk, GC pause, overloaded NIC).
//   - Truncate   — the request is serviced but the body stops after N
//     bytes: the classic mid-stream failure a Content-Length check catches.
//   - Blackout   — the target is gone for a window of requests (node crash
//     and reboot), failing every operation in [From, To).
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Injected errors. Every error returned by an injector wraps ErrInjected so
// tests can tell injected faults from real bugs with errors.Is.
var (
	ErrInjected = errors.New("faultinject: injected fault")
	// ErrTruncated marks an injected mid-body truncation; it also wraps
	// io.ErrUnexpectedEOF at the injection site so length-checking readers
	// classify it as a short read.
	ErrTruncated = errors.New("faultinject: injected truncation")
)

// Kind enumerates the fault model.
type Kind int

// Fault kinds.
const (
	ConnError Kind = iota
	Status
	Latency
	Truncate
	Blackout
	// Panic crashes the target in-process — only meaningful for FilterFault,
	// where the storlet sandbox is expected to contain it.
	Panic
)

// String names the kind (used as the Injected() map key).
func (k Kind) String() string {
	switch k {
	case ConnError:
		return "conn_error"
	case Status:
		return "status"
	case Latency:
		return "latency"
	case Truncate:
		return "truncate"
	case Blackout:
		return "blackout"
	case Panic:
		return "panic"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Op is the operation class a rule matches: an HTTP method for Transport
// ("GET", "PUT", ...) or a store operation for Store ("GET", "PUT", "HEAD",
// "DELETE", "LIST"). The empty Op matches every operation.
type Op string

// Operation classes.
const (
	OpAny    Op = ""
	OpGet    Op = "GET"
	OpPut    Op = "PUT"
	OpHead   Op = "HEAD"
	OpDelete Op = "DELETE"
	OpList   Op = "LIST"
	// OpInvoke sequences storlet filter invocations (FilterFault); the
	// rule path is the filter name.
	OpInvoke Op = "INVOKE"
	// OpMigrate sequences background partition-migration object copies
	// (MigrationHook); the rule path is the object path being moved.
	OpMigrate Op = "MIGRATE"
)

// MigrationHook adapts a schedule into the objectstore migrator's hook
// seam: each object copy consults the schedule before running, and an
// injected fault aborts the migration pass — the chaos analog of killing
// the migrator process mid-copy. The partition's record stays queued and
// the next pass resumes idempotently, which is exactly the recovery
// property the chaos suite proves. Latency faults delay instead of abort.
func MigrationHook(s *Schedule) func(path string) error {
	return func(path string) error {
		f := s.Next(OpMigrate, path)
		if f == nil {
			return nil
		}
		if f.Kind == Latency {
			time.Sleep(f.Delay)
			return nil
		}
		return fmt.Errorf("%w: migrator killed at %s (%s)", ErrInjected, path, f.Kind)
	}
}

// Fault is one injectable failure.
type Fault struct {
	Kind Kind
	// Status is the HTTP status to synthesize (Kind == Status).
	Status int
	// Delay is the injected latency (Kind == Latency).
	Delay time.Duration
	// AfterBytes is how many body bytes flow before truncation
	// (Kind == Truncate).
	AfterBytes int64
}

// Rule matches a window of the request sequence and names the fault to
// inject there. The zero Rule matches every request.
type Rule struct {
	// From and To bound the matching window [From, To) over the schedule's
	// 1-based request sequence. To == 0 means open-ended (every request
	// from From onward); a single request r is {From: r, To: r + 1}.
	From, To uint64
	// Op restricts the rule to one operation class; OpAny matches all.
	Op Op
	// PathSubstr, when non-empty, requires the request path to contain it.
	PathSubstr string
	// Fault is what to inject when the rule matches.
	Fault Fault
}

func (r Rule) matches(seq uint64, op Op, path string) bool {
	if seq < r.From {
		return false
	}
	if r.To != 0 && seq >= r.To {
		return false
	}
	if r.Op != OpAny && r.Op != op {
		return false
	}
	if r.PathSubstr != "" && !strings.Contains(path, r.PathSubstr) {
		return false
	}
	return true
}

// Schedule assigns every operation passing through one injector a sequence
// number and decides, from its rule list, whether to inject a fault there.
// A Schedule must not be shared between injectors whose interleaving is
// nondeterministic (e.g. two nodes served by concurrent goroutines) —
// give each injector its own Schedule and the replay guarantee holds
// per-injector.
type Schedule struct {
	rules []Rule
	seq   atomic.Uint64

	mu       sync.Mutex
	injected map[string]int64
}

// NewSchedule builds a schedule over the given rules. Rules are evaluated
// in order; the first match wins.
func NewSchedule(rules ...Rule) *Schedule {
	return &Schedule{rules: rules, injected: make(map[string]int64)}
}

// Next advances the request sequence and returns the fault to inject for
// this operation, or nil. A nil *Schedule injects nothing.
func (s *Schedule) Next(op Op, path string) *Fault {
	if s == nil {
		return nil
	}
	seq := s.seq.Add(1)
	for _, r := range s.rules {
		if r.matches(seq, op, path) {
			f := r.Fault
			s.mu.Lock()
			s.injected[f.Kind.String()]++
			s.mu.Unlock()
			return &f
		}
	}
	return nil
}

// Requests returns how many operations the schedule has sequenced.
func (s *Schedule) Requests() uint64 {
	if s == nil {
		return 0
	}
	return s.seq.Load()
}

// Injected returns per-kind counts of faults injected so far.
func (s *Schedule) Injected() map[string]int64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.injected))
	for k, v := range s.injected {
		out[k] = v
	}
	return out
}

// InjectedTotal returns the total number of injected faults.
func (s *Schedule) InjectedTotal() int64 {
	var n int64
	for _, v := range s.Injected() {
		n += v
	}
	return n
}

// GenConfig parameterizes Generate.
type GenConfig struct {
	// Horizon is the request-sequence range [1, Horizon] faults land in.
	Horizon uint64
	// Faults is how many single-shot fault rules to scatter.
	Faults int
	// Kinds are the fault kinds to draw from; nil means every transient
	// kind (ConnError, Status, Latency, Truncate) — Blackout windows are
	// structural and scripted explicitly, not scattered.
	Kinds []Kind
	// MaxDelay bounds Latency faults (default 2ms: enough to reorder
	// goroutines, cheap enough for CI).
	MaxDelay time.Duration
	// MaxTruncate bounds the bytes delivered before a Truncate fault
	// (default 4096).
	MaxTruncate int64
}

// Generate derives a reproducible rule set from a seed: the same seed and
// config always produce the same rules, which is what makes a "seeded chaos
// schedule" replayable. The returned rules are sorted by From so a reader
// can eyeball the failure script.
func Generate(seed int64, cfg GenConfig) []Rule {
	rng := rand.New(rand.NewSource(seed))
	if cfg.Horizon == 0 {
		cfg.Horizon = 100
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 2 * time.Millisecond
	}
	if cfg.MaxTruncate <= 0 {
		cfg.MaxTruncate = 4096
	}
	kinds := cfg.Kinds
	if len(kinds) == 0 {
		kinds = []Kind{ConnError, Status, Latency, Truncate}
	}
	statuses := []int{
		500, 502, 503, 504, 429, 408,
	}
	rules := make([]Rule, 0, cfg.Faults)
	for i := 0; i < cfg.Faults; i++ {
		at := uint64(rng.Int63n(int64(cfg.Horizon))) + 1
		f := Fault{Kind: kinds[rng.Intn(len(kinds))]}
		switch f.Kind {
		case Status:
			f.Status = statuses[rng.Intn(len(statuses))]
		case Latency:
			f.Delay = time.Duration(rng.Int63n(int64(cfg.MaxDelay)) + 1)
		case Truncate:
			f.AfterBytes = rng.Int63n(cfg.MaxTruncate)
		}
		rules = append(rules, Rule{From: at, To: at + 1, Fault: f})
	}
	sort.Slice(rules, func(i, j int) bool { return rules[i].From < rules[j].From })
	return rules
}
