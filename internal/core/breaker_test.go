package core

import (
	"testing"

	"htmgil/internal/trace"
)

// tcfg is a small breaker configuration the tests can walk by hand.
func tcfg() BreakerConfig {
	return BreakerConfig{Window: 8, TripFallbacks: 6, CooldownCycles: 1000, ProbeTarget: 3}
}

// arm feeds the breaker the lifetime commits it needs before fallback
// storms count (one full window's worth).
func arm(b *Breaker) {
	for i := 0; i < b.Cfg.Window; i++ {
		b.RecordCommit(int64(i))
	}
}

// trip arms the breaker and drives it open with a fallback storm at now.
func trip(b *Breaker, now int64) {
	arm(b)
	for i := 0; i < b.Cfg.TripFallbacks; i++ {
		b.RecordFallback(now)
	}
}

func TestBreakerDefaultsAndClamps(t *testing.T) {
	b := NewBreaker(BreakerConfig{})
	if b.Cfg != DefaultBreakerConfig() {
		t.Fatalf("zero config not defaulted: %+v", b.Cfg)
	}
	b = NewBreaker(BreakerConfig{Window: 4, TripFallbacks: 99})
	if b.Cfg.TripFallbacks != 4 {
		t.Fatalf("TripFallbacks not clamped to Window: %+v", b.Cfg)
	}
}

// TestBreakerUnarmedIgnoresFallbacks: before elision has committed a full
// window's worth of transactions, fallback storms (e.g. the WEBrick warm-up
// while length adjustment converges) must not trip the breaker.
func TestBreakerUnarmedIgnoresFallbacks(t *testing.T) {
	b := NewBreaker(tcfg())
	for i := 0; i < 10*b.Cfg.Window; i++ {
		b.RecordFallback(int64(i))
	}
	if b.State() != BreakerClosed || b.Opens != 0 {
		t.Fatalf("unarmed breaker tripped: state=%v opens=%d", b.State(), b.Opens)
	}
	// Commits one short of the window still don't arm it.
	for i := 0; i < b.Cfg.Window-1; i++ {
		b.RecordCommit(0)
	}
	for i := 0; i < 10*b.Cfg.Window; i++ {
		b.RecordFallback(int64(i))
	}
	if b.State() != BreakerClosed {
		t.Fatalf("breaker tripped one commit short of arming")
	}
	// The final arming commit, then a storm: now it trips.
	b.RecordCommit(0)
	for i := 0; i < b.Cfg.TripFallbacks; i++ {
		b.RecordFallback(100)
	}
	if b.State() != BreakerOpen || b.Opens != 1 {
		t.Fatalf("armed breaker did not trip: state=%v opens=%d", b.State(), b.Opens)
	}
}

// TestBreakerTripNeedsStormInWindow: scattered fallbacks below the window
// threshold never trip; TripFallbacks within the window do.
func TestBreakerTripNeedsStormInWindow(t *testing.T) {
	b := NewBreaker(tcfg())
	arm(b)
	// Alternate commit/fallback: the window never accumulates 6 fallbacks.
	for i := 0; i < 100; i++ {
		b.RecordFallback(int64(i))
		b.RecordCommit(int64(i))
	}
	if b.State() != BreakerClosed {
		t.Fatalf("mixed traffic tripped the breaker: %v", b.State())
	}
	for i := 0; i < b.Cfg.TripFallbacks; i++ {
		b.RecordFallback(200)
	}
	if b.State() != BreakerOpen {
		t.Fatalf("storm did not trip the breaker")
	}
}

// TestBreakerCooldownAndHalfOpen: an open breaker refuses elision until the
// cooldown expires, then admits probes in the half-open state.
func TestBreakerCooldownAndHalfOpen(t *testing.T) {
	b := NewBreaker(tcfg())
	trip(b, 5000)
	if b.Allow(5001) || b.Allow(5000+b.Cfg.CooldownCycles-1) {
		t.Fatalf("open breaker allowed elision during cooldown")
	}
	if b.State() != BreakerOpen {
		t.Fatalf("Allow during cooldown changed state to %v", b.State())
	}
	if !b.Allow(5000 + b.Cfg.CooldownCycles) {
		t.Fatalf("breaker did not admit probes after cooldown")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after cooldown = %v, want half-open", b.State())
	}
}

// TestHalfOpenClosesOnConsecutiveProbes: ProbeTarget consecutive commits
// close the breaker.
func TestHalfOpenClosesOnConsecutiveProbes(t *testing.T) {
	b := NewBreaker(tcfg())
	trip(b, 0)
	b.Allow(b.Cfg.CooldownCycles)
	for i := 0; i < b.Cfg.ProbeTarget; i++ {
		if b.State() != BreakerHalfOpen {
			t.Fatalf("left half-open after %d probes", i)
		}
		b.RecordCommit(int64(2000 + i))
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v after %d clean probes", b.State(), b.Cfg.ProbeTarget)
	}
}

// TestHalfOpenSurvivesScatteredFallbacks: half-open is an observation
// window, not sudden death — isolated fallbacks between commits reset the
// consecutive-probe count but must not reopen the breaker, and a full
// window below the trip threshold closes it.
func TestHalfOpenSurvivesScatteredFallbacks(t *testing.T) {
	cfg := tcfg()
	b := NewBreaker(cfg)
	trip(b, 0)
	b.Allow(cfg.CooldownCycles)
	// commit, fallback, commit, fallback, ... — never ProbeTarget in a row,
	// never TripFallbacks in the window. The window fills at 8 outcomes
	// (4 fallbacks < 6) and the breaker must settle closed.
	for i := 0; i < cfg.Window/2; i++ {
		b.RecordCommit(int64(3000 + 2*i))
		if b.State() != BreakerHalfOpen && i < cfg.Window/2-1 {
			t.Fatalf("left half-open early at probe pair %d: %v", i, b.State())
		}
		b.RecordFallback(int64(3001 + 2*i))
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v, want closed after a full below-threshold window", b.State())
	}
	if b.Opens != 1 {
		t.Fatalf("opens = %d, scattered half-open fallbacks must not reopen", b.Opens)
	}
}

// TestHalfOpenReopensOnStorm: a sustained fallback storm during half-open
// reopens the breaker.
func TestHalfOpenReopensOnStorm(t *testing.T) {
	b := NewBreaker(tcfg())
	trip(b, 0)
	b.Allow(b.Cfg.CooldownCycles)
	for i := 0; i < b.Cfg.TripFallbacks; i++ {
		b.RecordFallback(int64(2000 + i))
	}
	if b.State() != BreakerOpen || b.Opens != 2 {
		t.Fatalf("half-open storm did not reopen: state=%v opens=%d", b.State(), b.Opens)
	}
}

// TestBreakerTransitionsAndRecoverAt: the transition history records the
// full open -> half-open -> closed sequence, and its last entry is the
// final close time that time-to-recover is measured against.
func TestBreakerTransitionsAndRecoverAt(t *testing.T) {
	b := NewBreaker(tcfg())
	if len(b.Transitions) != 0 {
		t.Fatalf("untripped breaker has transitions: %+v", b.Transitions)
	}
	trip(b, 500)
	b.Allow(500 + b.Cfg.CooldownCycles)
	if last := b.Transitions[len(b.Transitions)-1]; last.State == "closed" {
		t.Fatalf("unclosed breaker recorded a close: %+v", b.Transitions)
	}
	for i := 0; i < b.Cfg.ProbeTarget; i++ {
		b.RecordCommit(int64(4000 + i))
	}
	want := []string{"open", "half-open", "closed"}
	if len(b.Transitions) != len(want) {
		t.Fatalf("transitions = %+v", b.Transitions)
	}
	for i, w := range want {
		if b.Transitions[i].State != w {
			t.Fatalf("transition %d = %q, want %q (%+v)", i, b.Transitions[i].State, w, b.Transitions)
		}
	}
	if b.Transitions[0].T != 500 {
		t.Fatalf("open recorded at %d, want 500", b.Transitions[0].T)
	}
	if got := b.Transitions[2].T; got != int64(4000+b.Cfg.ProbeTarget-1) {
		t.Fatalf("closed recorded at %d", got)
	}
}

// TestBreakerEmitsTraceEvents: every transition appears as a KindBreaker
// event on the attached recorder.
func TestBreakerEmitsTraceEvents(t *testing.T) {
	agg := trace.NewAggregator()
	b := NewBreaker(tcfg())
	b.Tracer = trace.NewRecorder(agg)
	trip(b, 0)
	b.Allow(b.Cfg.CooldownCycles)
	for i := 0; i < b.Cfg.ProbeTarget; i++ {
		b.RecordCommit(2000)
	}
	if agg.Breaker["open"] != 1 || agg.Breaker["half-open"] != 1 || agg.Breaker["closed"] != 1 {
		t.Fatalf("breaker trace events = %v", agg.Breaker)
	}
}

// TestNilBreakerSafe: the runtime wires the breaker unconditionally; every
// method must be a no-op on nil.
func TestNilBreakerSafe(t *testing.T) {
	var b *Breaker
	if !b.Allow(0) {
		t.Fatalf("nil breaker refused elision")
	}
	b.RecordFallback(0)
	b.RecordCommit(0)
	if b.State() != BreakerClosed {
		t.Fatalf("nil breaker has state")
	}
}
