package core

import (
	"htmgil/internal/trace"
)

// BreakerState is the elision circuit breaker's state.
type BreakerState uint8

// Breaker states, the classic circuit-breaker triple: Closed (elision
// allowed), Open (GIL-only), HalfOpen (probe transactions allowed).
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String returns the conventional state name.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	default:
		return "half-open"
	}
}

// BreakerReason is the fallback reason recorded when the open breaker
// forces a critical section onto the GIL without consulting the policy.
const BreakerReason = "breaker-open"

// BreakerConfig tunes the elision circuit breaker.
type BreakerConfig struct {
	// Window is the sliding window of recent critical-section outcomes
	// (transactional commit vs GIL fallback) the trip decision looks at.
	Window int
	// TripFallbacks opens the breaker when at least this many of the last
	// Window outcomes were fallbacks — a sustained fallback-acquisition
	// storm rather than a transient blip.
	TripFallbacks int
	// CooldownCycles is how long the breaker stays open before admitting
	// half-open probe transactions.
	CooldownCycles int64
	// ProbeTarget closes the breaker after this many consecutive
	// transactional commits in the half-open state. Any fallback while
	// half-open re-opens it.
	ProbeTarget int
}

// DefaultBreakerConfig returns the default thresholds: trip when 3/4 of the
// last 64 sections fell back, cool down 2M cycles, close after 8 clean
// probes.
func DefaultBreakerConfig() BreakerConfig {
	return BreakerConfig{
		Window:         64,
		TripFallbacks:  48,
		CooldownCycles: 2_000_000,
		ProbeTarget:    8,
	}
}

// BreakerTransition is one recorded state change.
type BreakerTransition struct {
	T     int64  `json:"t"`
	State string `json:"state"`
}

// Breaker is the per-runtime elision circuit breaker. When sustained
// fallback storms show elision is doing more harm than good (every aborted
// section pays for its retries and then takes the GIL anyway), the breaker
// opens and routes every critical section straight to the GIL — the
// paper's safety net promoted to the steady state. After a cooldown it
// admits probe transactions (half-open) and fully re-enables elision once
// they commit cleanly.
//
// The breaker only arms itself after elision commits a full window's worth
// of transactions. Workloads like WEBrick spend a long warm-up aborting
// every transaction while the Figure 3 length adjustment converges;
// tripping there would freeze the learning (GIL-only sections generate no
// aborts to adjust on) and latch the breaker open on a workload that was
// about to become healthy. A storm only counts once elision has proven it
// can work.
//
// The simulator is single-threaded, so the breaker needs no locking; all
// methods are nil-safe so wiring is unconditional.
type Breaker struct {
	Cfg    BreakerConfig
	Tracer *trace.Recorder

	state     BreakerState
	commits   uint64 // lifetime transactional commits (arming)
	ring      []bool // true = fallback, circular over Cfg.Window outcomes
	next      int
	filled    int
	fallbacks int   // fallbacks among the filled entries
	openedAt  int64 // time of the most recent open transition
	probes    int   // consecutive half-open commits

	// Transitions is the full state-change history (reports, tests).
	Transitions []BreakerTransition
	// Opens counts open transitions (quick "did it trip" check).
	Opens uint64
}

// NewBreaker creates a closed breaker. Zero config fields take defaults.
func NewBreaker(cfg BreakerConfig) *Breaker {
	def := DefaultBreakerConfig()
	if cfg.Window <= 0 {
		cfg.Window = def.Window
	}
	if cfg.TripFallbacks <= 0 {
		cfg.TripFallbacks = def.TripFallbacks
	}
	if cfg.TripFallbacks > cfg.Window {
		cfg.TripFallbacks = cfg.Window
	}
	if cfg.CooldownCycles <= 0 {
		cfg.CooldownCycles = def.CooldownCycles
	}
	if cfg.ProbeTarget <= 0 {
		cfg.ProbeTarget = def.ProbeTarget
	}
	return &Breaker{Cfg: cfg, ring: make([]bool, cfg.Window)}
}

// State returns the current state (BreakerClosed on nil).
func (b *Breaker) State() BreakerState {
	if b == nil {
		return BreakerClosed
	}
	return b.state
}

// Allow reports whether a critical section may attempt elision at now. An
// open breaker answers false until its cooldown expires, at which point it
// moves to half-open and starts admitting probes. Nil-safe (always true).
func (b *Breaker) Allow(now int64) bool {
	if b == nil {
		return true
	}
	switch b.state {
	case BreakerOpen:
		if now-b.openedAt < b.Cfg.CooldownCycles {
			return false
		}
		b.probes = 0
		b.transition(now, BreakerHalfOpen)
		return true
	default:
		return true
	}
}

// push records one critical-section outcome into the sliding window.
func (b *Breaker) push(fallback bool) {
	if b.filled == len(b.ring) {
		if b.ring[b.next] {
			b.fallbacks--
		}
	} else {
		b.filled++
	}
	b.ring[b.next] = fallback
	if fallback {
		b.fallbacks++
	}
	b.next++
	if b.next == len(b.ring) {
		b.next = 0
	}
}

// reset clears the sliding window (on any state change).
func (b *Breaker) reset() {
	b.next, b.filled, b.fallbacks = 0, 0, 0
}

// RecordFallback records a GIL fallback of a section that was allowed to
// attempt elision. While closed (and armed) it may trip the breaker; while
// half-open it feeds the probe window and re-opens the breaker when the
// storm re-materializes. Nil-safe.
func (b *Breaker) RecordFallback(now int64) {
	if b == nil {
		return
	}
	switch b.state {
	case BreakerClosed:
		if !b.armed() {
			return
		}
		b.push(true)
		if b.fallbacks >= b.Cfg.TripFallbacks {
			b.transition(now, BreakerOpen)
		}
	case BreakerHalfOpen:
		b.probes = 0
		b.push(true)
		b.settle(now)
	}
}

// armed reports whether elision has demonstrated a healthy phase — a full
// window's worth of transactional commits — so that fallback storms count.
func (b *Breaker) armed() bool { return b.commits >= uint64(b.Cfg.Window) }

// RecordCommit records a transactional (non-GIL) critical-section commit.
// Commits arm the breaker (see armed); half-open commits count toward
// closing it. Nil-safe.
func (b *Breaker) RecordCommit(now int64) {
	if b == nil {
		return
	}
	b.commits++
	switch b.state {
	case BreakerClosed:
		b.push(false)
	case BreakerHalfOpen:
		b.probes++
		b.push(false)
		b.settle(now)
	}
}

// settle decides the half-open phase after each probe outcome. The phase is
// an observation window, not sudden death: one failed probe among many
// commits must not latch the breaker open (the open state itself breeds
// fallbacks, and warm-up workloads need sustained probing for the length
// adjustment to converge). Reopen when the window accumulates a storm's
// worth of fallbacks; close on ProbeTarget consecutive commits, or when a
// full window passed below the trip threshold.
func (b *Breaker) settle(now int64) {
	switch {
	case b.fallbacks >= b.Cfg.TripFallbacks:
		b.transition(now, BreakerOpen)
	case b.probes >= b.Cfg.ProbeTarget:
		b.transition(now, BreakerClosed)
	case b.filled == len(b.ring):
		b.transition(now, BreakerClosed)
	}
}

// transition moves to state s, recording and tracing the change.
func (b *Breaker) transition(now int64, s BreakerState) {
	b.state = s
	b.reset()
	if s == BreakerOpen {
		b.openedAt = now
		b.Opens++
	}
	b.Transitions = append(b.Transitions, BreakerTransition{T: now, State: s.String()})
	if b.Tracer != nil {
		ev := trace.Ev(now, trace.KindBreaker)
		ev.Note = s.String()
		b.Tracer.Emit(ev)
	}
}
