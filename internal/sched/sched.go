// Package sched is a deterministic discrete-event simulator of a small
// multiprocessor. Simulated threads advance per-thread virtual clocks by
// executing steps (one bytecode, one native operation, ...) that report
// their cycle cost; hardware-thread contexts model core occupancy and SMT
// cycle sharing. The engine is entirely single-threaded: given the same
// inputs it produces bit-identical schedules, which makes every experiment
// in this repository reproducible.
package sched

import (
	"container/heap"
	"fmt"
	"sort"

	"htmgil/internal/choice"
	"htmgil/internal/trace"
)

// Status is the scheduling state a step leaves its thread in.
type Status uint8

// Thread step outcomes.
const (
	Running Status = iota // keep scheduling the thread
	Blocked               // thread parked until Engine.Wake
	Done                  // thread finished
)

// StepResult reports the outcome of one simulated step.
type StepResult struct {
	Cycles int64  // virtual cycles consumed by the step
	Status Status // state after the step
}

// StepFunc executes one step of a simulated thread starting at virtual time
// now and returns its cost and resulting state.
type StepFunc func(now int64) StepResult

// Config describes the simulated machine shape.
type Config struct {
	HWThreads  int     // number of hardware threads (contexts)
	SMTWays    int     // hardware threads per core (1 or 2)
	SMTPenalty float64 // cycle multiplier while the SMT sibling is busy (e.g. 1.9)
}

// HWContext is one hardware thread of the simulated machine.
type HWContext struct {
	ID      int
	clock   int64 // time at which this hardware thread is next free
	sibling *HWContext
	nlive   int // live software threads affined to this context

	// runq holds the Running threads affined to this context. In ctx
	// dispatch mode it is a min-heap ordered by (Clock, ID); in scan mode
	// it is unused (emptied, rebuilt on mode entry).
	runq []*Thread
	// heapIdx is this context's index in the engine's context heap, -1
	// while the context has no runnable thread (or in scan mode).
	heapIdx int
}

// Clock returns the virtual time at which the context is next free.
func (c *HWContext) Clock() int64 { return c.clock }

// Busy reports whether the context has any live software thread. The HTM
// layer uses the sibling's Busy to halve transactional capacities under SMT.
func (c *HWContext) Busy() bool { return c.nlive > 0 }

// Sibling returns the SMT sibling context, or nil on non-SMT machines.
func (c *HWContext) Sibling() *HWContext { return c.sibling }

// Thread is a simulated software thread.
type Thread struct {
	ID    int
	Clock int64
	Ctx   *HWContext

	status     Status
	step       StepFunc
	blockStart int64
	lastWait   int64
	runIdx     int // index in the engine's flat Running list, -1 when not running
	ctxIdx     int // index in Ctx.runq (ctx mode), -1 when not queued
	Name       string
}

// Status returns the thread's scheduling state.
func (t *Thread) Status() Status { return t.status }

// LastWait returns the virtual time the thread spent blocked before its most
// recent wake-up; the interpreter attributes it to a wait category.
func (t *Thread) LastWait() int64 { return t.lastWait }

type timedEvent struct {
	at  int64
	seq int64
	fn  func(now int64)
}

type eventPQ []*timedEvent

func (q eventPQ) Len() int { return len(q) }
func (q eventPQ) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventPQ) Swap(i, j int)     { q[i], q[j] = q[j], q[i] }
func (q *eventPQ) Push(x any)       { *q = append(*q, x.(*timedEvent)) }
func (q *eventPQ) Pop() any         { old := *q; n := len(old); e := old[n-1]; *q = old[:n-1]; return e }
func (q eventPQ) peek() *timedEvent { return q[0] }

// Dispatch strategy. The Running threads always live in one flat slice
// (runList); what varies is how the minimum of the dispatch order —
// (effective start, own clock, ID) — is found. Below dispatchCtxMin threads
// the engine scans the slice: a handful of inline comparisons per step beats
// any structure. At dispatchCtxMin it switches to incremental two-level
// maintenance: each context keeps a min-heap of its runnable threads ordered
// by (Clock, ID), and a top-level heap orders the contexts by their head's
// dispatch key. Below dispatchCtxExit it falls back to scanning (the gap is
// hysteresis, so a workload oscillating around the threshold does not
// rebuild the structures every step).
//
// The two-level split is what makes large-N dispatch cheap. Within one
// context, effStart = max(ctx.clock, th.Clock), so ordering by (Clock, ID)
// refines the dispatch order exactly AND is invariant under advances of the
// context's clock: a step never reorders the stepping context's queue, it
// only changes that one context's key in the small top-level heap. Each
// step therefore costs O(log threads-per-context + log contexts) instead of
// restamping every thread queued on the context (the previous design). Both
// orders are the same strict total order, so the dispatched thread — and
// therefore the whole schedule — is identical in either mode.
// BenchmarkStepDispatch measures the crossover;
// TestDispatchModesBitIdentical pins the equivalence on a randomized corpus.
//
// The thresholds are variables only so the corpus test can force one mode.
var (
	dispatchCtxMin  = 64
	dispatchCtxExit = 48
)

// runList holds the Running threads as an unordered slice; threads track
// their index for O(1) removal. It is the only structure scan mode needs,
// and ctx mode keeps it current so mode exits cost nothing.
type runList struct {
	th []*Thread
}

func (l *runList) add(t *Thread) {
	t.runIdx = len(l.th)
	l.th = append(l.th, t)
}

// removeAt detaches the thread at slice index i by swapping in the last
// element; no ordering invariant exists to repair.
func (l *runList) removeAt(i int) {
	last := len(l.th) - 1
	t := l.th[i]
	l.th[i] = l.th[last]
	l.th[i].runIdx = i
	l.th[last] = nil
	l.th = l.th[:last]
	t.runIdx = -1
}

// effStart returns the earliest virtual time th could begin its next step:
// its own clock or the time its hardware context becomes free.
func effStart(th *Thread) int64 {
	if th.Ctx.clock > th.Clock {
		return th.Ctx.clock
	}
	return th.Clock
}

// runqLess orders threads within one context's run queue: smallest own
// clock first (the longest waiter), then lowest ID. IDs are unique, so this
// is a strict total order — and because every thread in the queue shares
// the same context clock, it refines the global dispatch order
// (effStart, Clock, ID) restricted to the queue, whatever the context
// clock is.
func runqLess(a, b *Thread) bool {
	if a.Clock != b.Clock {
		return a.Clock < b.Clock
	}
	return a.ID < b.ID
}

func (c *HWContext) runqSwap(i, j int) {
	c.runq[i], c.runq[j] = c.runq[j], c.runq[i]
	c.runq[i].ctxIdx = i
	c.runq[j].ctxIdx = j
}

func (c *HWContext) runqUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !runqLess(c.runq[i], c.runq[parent]) {
			break
		}
		c.runqSwap(i, parent)
		i = parent
	}
}

func (c *HWContext) runqDown(i int) {
	n := len(c.runq)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && runqLess(c.runq[r], c.runq[l]) {
			m = r
		}
		if !runqLess(c.runq[m], c.runq[i]) {
			return
		}
		c.runqSwap(i, m)
		i = m
	}
}

func (c *HWContext) runqPush(th *Thread) {
	th.ctxIdx = len(c.runq)
	c.runq = append(c.runq, th)
	c.runqUp(th.ctxIdx)
}

// runqPopHead removes and returns the queue head.
func (c *HWContext) runqPopHead() *Thread {
	h := c.runq[0]
	last := len(c.runq) - 1
	c.runqSwap(0, last)
	c.runq[last] = nil
	c.runq = c.runq[:last]
	h.ctxIdx = -1
	if last > 0 {
		c.runqDown(0)
	}
	return h
}

// ctxBefore orders two contexts by their queue heads' dispatch keys:
// earliest effective start, then smallest own clock, then lowest ID. Both
// queues are non-empty while their contexts sit in the engine's context
// heap, and thread IDs are unique, so this is a strict total order.
func ctxBefore(a, b *HWContext) bool {
	ha, hb := a.runq[0], b.runq[0]
	ea, eb := ha.Clock, hb.Clock
	if a.clock > ea {
		ea = a.clock
	}
	if b.clock > eb {
		eb = b.clock
	}
	if ea != eb {
		return ea < eb
	}
	if ha.Clock != hb.Clock {
		return ha.Clock < hb.Clock
	}
	return ha.ID < hb.ID
}

// Engine drives the simulation.
type Engine struct {
	cfg     Config
	ctxs    []*HWContext
	run     runList // all Running threads, unordered
	ctxMode bool    // see the dispatch-strategy comment above
	ctxq    []*HWContext
	timed   eventPQ
	seq     int64
	now     int64
	live    int
	nthread int
	stopped bool
	nextCtx int

	// Tracer, when non-nil, receives thread-spawn/thread-done events.
	Tracer *trace.Recorder

	// WakeJitter, when non-nil, returns extra cycles to delay a wakeup
	// scheduled for the given time — the fault harness's stand-in for OS
	// preemption/dispatch jitter. It must be deterministic.
	WakeJitter func(at int64) int64

	// Chooser, when non-nil, takes control of thread dispatch and timer
	// firing: Run switches to the exploration loop, which offers every
	// dispatch decision (and every fire-or-defer decision for due timed
	// events) to the Chooser. Index 0 always reproduces the vanilla
	// schedule. Installed by internal/explore.
	Chooser choice.Chooser
}

// NewEngine builds a simulated machine.
func NewEngine(cfg Config) *Engine {
	if cfg.HWThreads <= 0 {
		panic("sched: need at least one hardware thread")
	}
	if cfg.SMTWays <= 0 {
		cfg.SMTWays = 1
	}
	if cfg.SMTPenalty < 1 {
		cfg.SMTPenalty = 1
	}
	e := &Engine{cfg: cfg}
	e.ctxs = make([]*HWContext, cfg.HWThreads)
	for i := range e.ctxs {
		e.ctxs[i] = &HWContext{ID: i, heapIdx: -1}
	}
	if cfg.SMTWays == 2 {
		// Contexts are ordered core-first: ctx i and ctx i+cores share core i,
		// so that spreading threads round-robin fills distinct cores first,
		// as the paper's thread placement does. cores rounds up so that an
		// odd context count yields one sibling-less core among the primaries
		// rather than a sibling-less context *after* them (which round-robin
		// placement would fill only after doubling up a core).
		cores := (cfg.HWThreads + 1) / 2
		for i := 0; i+cores < cfg.HWThreads; i++ {
			e.ctxs[i].sibling = e.ctxs[i+cores]
			e.ctxs[i+cores].sibling = e.ctxs[i]
		}
	}
	return e
}

// Contexts returns the hardware-thread contexts.
func (e *Engine) Contexts() []*HWContext { return e.ctxs }

// Now returns the current virtual time (the start time of the most recent
// step or timed event).
func (e *Engine) Now() int64 { return e.now }

// Spawn creates a thread starting at virtual time startAt, affined
// round-robin to the hardware contexts (distinct cores first).
func (e *Engine) Spawn(name string, startAt int64, step StepFunc) *Thread {
	ctx := e.ctxs[e.nextCtx%len(e.ctxs)]
	e.nextCtx++
	th := &Thread{
		ID:     e.nthread,
		Name:   name,
		Clock:  startAt,
		Ctx:    ctx,
		step:   step,
		runIdx: -1,
		ctxIdx: -1,
	}
	e.nthread++
	ctx.nlive++
	e.live++
	e.addRunning(th)
	if e.Tracer != nil {
		ev := trace.Ev(startAt, trace.KindThreadSpawn)
		ev.Thread = th.ID
		ev.Note = name
		e.Tracer.Emit(ev)
	}
	return th
}

// addRunning inserts a thread into the Running structures. In ctx mode the
// thread also enters its context's queue; the context's top-level key is
// repaired immediately, so the heaps stay valid between any two mutations
// (a step's Spawns and Wakes interleave with the stepping thread being
// temporarily dequeued).
func (e *Engine) addRunning(th *Thread) {
	e.run.add(th)
	if e.ctxMode {
		c := th.Ctx
		c.runqPush(th)
		if c.heapIdx < 0 {
			e.ctxqPush(c)
		} else if th.ctxIdx == 0 {
			e.ctxqFix(c) // new head: the context's key changed
		}
	}
}

// Context-heap maintenance (ctx mode): a hand-rolled indexed min-heap over
// the contexts with runnable threads, ordered by ctxBefore. The comparator
// reads live clocks; that is sound because every single-context mutation
// (queue push/pop, clock advance) is followed by one fix of that context
// before any other context is touched.

func (e *Engine) ctxqSwap(i, j int) {
	e.ctxq[i], e.ctxq[j] = e.ctxq[j], e.ctxq[i]
	e.ctxq[i].heapIdx = i
	e.ctxq[j].heapIdx = j
}

func (e *Engine) ctxqUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !ctxBefore(e.ctxq[i], e.ctxq[parent]) {
			break
		}
		e.ctxqSwap(i, parent)
		i = parent
	}
}

func (e *Engine) ctxqDown(i int) {
	n := len(e.ctxq)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && ctxBefore(e.ctxq[r], e.ctxq[l]) {
			m = r
		}
		if !ctxBefore(e.ctxq[m], e.ctxq[i]) {
			return
		}
		e.ctxqSwap(i, m)
		i = m
	}
}

func (e *Engine) ctxqPush(c *HWContext) {
	c.heapIdx = len(e.ctxq)
	e.ctxq = append(e.ctxq, c)
	e.ctxqUp(c.heapIdx)
}

func (e *Engine) ctxqRemove(c *HWContext) {
	i := c.heapIdx
	last := len(e.ctxq) - 1
	e.ctxqSwap(i, last)
	e.ctxq[last] = nil
	e.ctxq = e.ctxq[:last]
	c.heapIdx = -1
	if i < last {
		e.ctxqFixAt(i)
	}
}

// ctxqFix repairs c's position after its key changed.
func (e *Engine) ctxqFix(c *HWContext) { e.ctxqFixAt(c.heapIdx) }

func (e *Engine) ctxqFixAt(i int) {
	e.ctxqUp(i)
	if e.ctxq[i].heapIdx == i {
		e.ctxqDown(i)
	}
}

// setDispatchMode flips between scan and ctx dispatch with hysteresis.
// Entering ctx mode rebuilds the per-context queues from the flat Running
// list and heapifies the context heap; leaving tears the structures down
// (scan mode maintains neither).
func (e *Engine) setDispatchMode() {
	if n := len(e.run.th); e.ctxMode {
		if n < dispatchCtxExit {
			e.ctxMode = false
			for _, c := range e.ctxs {
				for i := range c.runq {
					c.runq[i].ctxIdx = -1
					c.runq[i] = nil
				}
				c.runq = c.runq[:0]
				c.heapIdx = -1
			}
			for i := range e.ctxq {
				e.ctxq[i] = nil
			}
			e.ctxq = e.ctxq[:0]
		}
	} else if n >= dispatchCtxMin {
		for _, th := range e.run.th {
			th.ctxIdx = len(th.Ctx.runq)
			th.Ctx.runq = append(th.Ctx.runq, th)
		}
		for _, c := range e.ctxs {
			if len(c.runq) == 0 {
				continue
			}
			for i := len(c.runq)/2 - 1; i >= 0; i-- {
				c.runqDown(i)
			}
			e.ctxqPush(c)
		}
		e.ctxMode = true
	}
}

// At schedules fn to run at virtual time t.
func (e *Engine) At(t int64, fn func(now int64)) {
	e.seq++
	heap.Push(&e.timed, &timedEvent{at: t, seq: e.seq, fn: fn})
}

// Wake unparks a blocked thread at virtual time t (or the thread's own
// clock, whichever is later) and records the wait duration.
func (e *Engine) Wake(t *Thread, at int64) {
	if t.status != Blocked {
		panic(fmt.Sprintf("sched: waking thread %d in state %d", t.ID, t.status))
	}
	if e.WakeJitter != nil {
		at += e.WakeJitter(at)
	}
	if at < t.Clock {
		at = t.Clock
	}
	t.lastWait = at - t.blockStart
	t.Clock = at
	t.status = Running
	e.addRunning(t)
}

// Stop makes Run return after the current step completes.
func (e *Engine) Stop() { e.stopped = true }

// Live returns the number of threads that have not finished.
func (e *Engine) Live() int { return e.live }

// Run drives the simulation until every thread is Done, Stop is called, or
// no progress is possible. It returns an error on deadlock (blocked threads
// with no pending timed events).
func (e *Engine) Run() error {
	if e.Chooser != nil {
		return e.runExplore()
	}
	for !e.stopped {
		if e.live == 0 {
			// Every thread finished; pending timed events (timers,
			// watchdogs) must not advance the clock past the makespan.
			return nil
		}
		e.setDispatchMode()
		var pick *Thread
		var pickAt int64
		if e.ctxMode {
			if len(e.ctxq) > 0 {
				pick = e.ctxq[0].runq[0]
				pickAt = effStart(pick)
			}
		} else {
			for _, th := range e.run.th {
				at := effStart(th)
				// Prefer the earliest start time; among ties, the thread
				// that has waited longest (smallest own clock) so threads
				// sharing a core round-robin; among full ties, the lowest
				// ID (determinism).
				if pick == nil || at < pickAt ||
					(at == pickAt && (th.Clock < pick.Clock ||
						(th.Clock == pick.Clock && th.ID < pick.ID))) {
					pick, pickAt = th, at
				}
			}
		}
		// Fire timed events due before the next step.
		if len(e.timed) > 0 && (pick == nil || e.timed.peek().at <= pickAt) {
			ev := heap.Pop(&e.timed).(*timedEvent)
			if ev.at > e.now {
				e.now = ev.at
			}
			ev.fn(e.now)
			continue
		}
		if pick == nil {
			return fmt.Errorf("sched: deadlock with %d live threads", e.live)
		}
		e.execStep(pick, pickAt)
	}
	return nil
}

// execStep runs one step of pick starting at pickAt and applies the outcome
// to the Running structures. In ctx mode the pick — always its context's
// queue head — is dequeued before the step runs, because the step mutates
// the pick's clock (the queue's ordering key) and may Spawn or Wake threads
// into any queue; it re-enters with its final clock afterwards. The flat
// Running list keeps the pick throughout, as scan mode always has.
func (e *Engine) execStep(pick *Thread, pickAt int64) {
	ctx := pick.Ctx
	if e.ctxMode {
		ctx.runqPopHead()
		if len(ctx.runq) == 0 {
			e.ctxqRemove(ctx)
		} else {
			e.ctxqFix(ctx)
		}
	}
	e.now = pickAt
	pick.Clock = pickAt
	res := pick.step(pickAt)
	cost := res.Cycles
	if cost < 0 {
		panic("sched: negative step cost")
	}
	if e.cfg.SMTWays == 2 && ctx.sibling != nil && ctx.sibling.Busy() {
		cost = int64(float64(cost) * e.cfg.SMTPenalty)
	}
	end := pickAt + cost
	pick.Clock = end
	ctx.clock = end
	switch res.Status {
	case Running:
		if e.ctxMode {
			ctx.runqPush(pick)
			if ctx.heapIdx < 0 {
				e.ctxqPush(ctx)
			} else {
				// Clock advance and possible new head: one key change,
				// one fix.
				e.ctxqFix(ctx)
			}
		}
	case Blocked:
		pick.status = Blocked
		pick.blockStart = end
		e.run.removeAt(pick.runIdx)
		if e.ctxMode && ctx.heapIdx >= 0 {
			e.ctxqFix(ctx) // the context's clock advanced under its queue
		}
	case Done:
		pick.status = Done
		ctx.nlive--
		e.live--
		e.run.removeAt(pick.runIdx)
		if e.ctxMode && ctx.heapIdx >= 0 {
			e.ctxqFix(ctx)
		}
		if e.Tracer != nil {
			ev := trace.Ev(end, trace.KindThreadDone)
			ev.Thread = pick.ID
			e.Tracer.Emit(ev)
		}
	}
}

// runExplore is the dispatch loop used when a Chooser is installed. It stays
// in scan mode (exploration targets small thread counts), computes the full
// deterministic candidate order each iteration, and lets the Chooser pick
// which runnable thread steps next and whether due timed events fire before
// the step or after it. When every choice is 0 the schedule is identical to
// the vanilla Run loop's.
func (e *Engine) runExplore() error {
	var cands []*Thread
	for !e.stopped {
		if e.live == 0 {
			return nil
		}
		// The engine never enters ctx mode here; candidate order is the
		// scan preference as a total order: effective start, then own
		// clock (longest waiter), then ID.
		cands = append(cands[:0], e.run.th...)
		sort.Slice(cands, func(i, j int) bool {
			ai, aj := effStart(cands[i]), effStart(cands[j])
			if ai != aj {
				return ai < aj
			}
			if cands[i].Clock != cands[j].Clock {
				return cands[i].Clock < cands[j].Clock
			}
			return cands[i].ID < cands[j].ID
		})
		if len(cands) == 0 {
			// No runnable thread: a due timed event (a wakeup source) must
			// fire — there is no alternative to offer.
			if len(e.timed) == 0 {
				return fmt.Errorf("sched: deadlock with %d live threads", e.live)
			}
			e.fireTimed()
			continue
		}
		defaultAt := effStart(cands[0])
		if len(e.timed) > 0 && e.timed.peek().at <= defaultAt {
			// A timed event is due before the preferred thread step: offer
			// the choice to defer it past one step. Each deferral is one
			// non-default choice, so bounded exploration terminates.
			if e.Chooser.Choose(choice.Timer, 2) == 0 {
				e.fireTimed()
				continue
			}
		}
		idx := 0
		if len(cands) > 1 {
			idx = e.Chooser.Choose(choice.Dispatch, len(cands))
		}
		pick := cands[idx]
		e.execStep(pick, effStart(pick))
	}
	return nil
}

// fireTimed pops and runs the earliest timed event.
func (e *Engine) fireTimed() {
	ev := heap.Pop(&e.timed).(*timedEvent)
	if ev.at > e.now {
		e.now = ev.at
	}
	ev.fn(e.now)
}
