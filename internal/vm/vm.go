// Package vm is the mini-Ruby virtual machine: a stack-based bytecode
// interpreter in the style of CRuby 1.9 whose every piece of shared state
// lives in simulated memory, executed by simulated threads on the
// discrete-event machine of internal/sched.
//
// The VM supports four execution modes:
//
//   - ModeGIL: the original CRuby design. One Giant VM Lock serializes all
//     interpretation; a timer thread flags the runner every TimerInterval
//     cycles, making it yield at the next yield point.
//   - ModeHTM: the paper's design. Bytecode runs inside hardware
//     transactions bounded by yield points, with the GIL retained as a
//     fallback (internal/core implements Figures 1-3).
//   - ModeFGL: a JRuby-style runtime: no GIL, fine-grained safepoints for
//     GC, unsynchronized core library (used for Figure 9).
//   - ModeIdeal: no GIL, no HTM, per-thread allocation — exposes only the
//     application's inherent scalability (the paper's Java NPB stand-in).
package vm

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"htmgil/internal/choice"
	"htmgil/internal/compile"
	"htmgil/internal/core"
	"htmgil/internal/fault"
	"htmgil/internal/gil"
	"htmgil/internal/heap"
	"htmgil/internal/htm"
	"htmgil/internal/object"
	"htmgil/internal/occ"
	"htmgil/internal/policy"
	"htmgil/internal/sched"
	"htmgil/internal/simmem"
	"htmgil/internal/trace"
)

// Mode selects the concurrency design.
type Mode uint8

// Execution modes.
const (
	ModeGIL Mode = iota
	ModeHTM
	ModeFGL
	ModeIdeal
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeGIL:
		return "GIL"
	case ModeHTM:
		return "HTM"
	case ModeFGL:
		return "FGL"
	default:
		return "Ideal"
	}
}

// Options configures a VM run. The zero value is not valid; use
// DefaultOptions and override.
type Options struct {
	Mode Mode
	Prof *htm.Profile

	// Policy selects the contention-management policy by its
	// internal/policy registry name (ModeHTM only). Empty selects
	// paper-dynamic, the paper's per-yield-point length adjustment;
	// "fixed-N" runs fixed-length transactions (the paper's HTM-1/16/256).
	// New panics on an unknown name; callers taking user input should
	// validate with policy.New first.
	Policy string

	// ExtendedYieldPoints enables the paper's additional yield points
	// (Section 4.2). Without them only back-edges and leaves yield.
	ExtendedYieldPoints bool

	// Shards > 1 enables sharded-GIL mode (ModeHTM only, max 64): the
	// keyspace of the datastore extension is partitioned into this many
	// shards, each with its own fallback GIL, and critical sections whose
	// aborted attempt touched exactly one shard serialize on that shard's
	// lock instead of the root GIL. See internal/gil.Sharded and DESIGN.md
	// §13.
	Shards int

	// Conflict-removal toggles (Section 4.4).
	GlobalVarsToTLS      bool // running-thread globals moved to TLS
	ThreadLocalFreeLists bool // per-thread object free lists
	FillOnceInlineCaches bool // method inline caches filled only once
	IvarTableGuard       bool // ivar caches guarded by ivar-table identity
	PaddedThreadStructs  bool // thread structs in dedicated cache lines

	HeapSlots         int // RVALUE count (RUBY_HEAP_MIN_SLOTS analogue)
	ArenaBytes        int
	ThreadLocalArenas bool // malloc HEAPPOOLS / Linux behaviour

	TimerInterval int64 // GIL timer-thread interval in cycles
	Seed          int64
	MaxCycles     int64 // stop the run after this much virtual time (0 = off)

	Out io.Writer // program output (nil = discard)

	// Trace, when non-nil, receives structured events from every layer of
	// the machine (TLE protocol, GIL, simulated memory, scheduler, GC).
	// Nil (the default) keeps all emit sites on their nil-check fast path.
	Trace *trace.Recorder

	// Faults, when non-nil and armed, enables the deterministic
	// fault-injection harness (internal/fault): spurious HTM aborts,
	// capacity jitter, GIL timer jitter and scheduler wake jitter are
	// wired here; network faults reach internal/netsim via VM.Faults.
	Faults *fault.Spec

	// Breaker enables the elision circuit breaker (ModeHTM): sustained
	// fallback storms open it and route critical sections straight to the
	// GIL until half-open probes commit again. BreakerConfig overrides the
	// default thresholds when any field is non-zero.
	Breaker       bool
	BreakerConfig core.BreakerConfig

	// Watchdog enables the livelock/starvation watchdog, which observes
	// the trace stream and raises structured degradation events. It needs
	// a Trace recorder; when Trace is nil one is created internally.
	Watchdog       bool
	WatchdogConfig core.WatchdogConfig

	// Deadlines, when non-nil, arms request-deadline propagation into the
	// policy seam: the contention policy is wrapped in a DeadlineGate that
	// downgrades critical sections within DeadlineSlack cycles of their
	// request's deadline from speculative retry straight to the GIL. The
	// source is typically a resilience.DeadlineTable maintained by the
	// netsim accept/read path.
	Deadlines     core.DeadlineSource
	DeadlineSlack int64 // 0 = policy.NewDeadlineGate's default

	// Chooser, when non-nil, hands every nondeterministic choice point of
	// the stack — thread dispatch, timer firing, GIL yield and hand-off,
	// conflict-winner selection — to the systematic schedule explorer
	// (internal/explore). Index 0 at every point reproduces the vanilla
	// deterministic schedule.
	Chooser choice.Chooser
}

// DefaultOptions returns the paper's optimized configuration for a machine.
func DefaultOptions(prof *htm.Profile, mode Mode) Options {
	return Options{
		Mode:                 mode,
		Prof:                 prof,
		ExtendedYieldPoints:  true,
		GlobalVarsToTLS:      true,
		ThreadLocalFreeLists: true,
		FillOnceInlineCaches: true,
		IvarTableGuard:       true,
		PaddedThreadStructs:  true,
		HeapSlots:            200_000,
		ArenaBytes:           96 << 20,
		ThreadLocalArenas:    true,
		TimerInterval:        250_000,
		Seed:                 1,
		MaxCycles:            60_000_000_000,
	}
}

// maxContexts is the maximum number of concurrently live Ruby threads.
const maxContexts = simmem.MaxContexts

// threadStructWords is the size of one simulated thread structure.
const threadStructWords = 16

// Thread-structure word offsets.
const (
	tsYieldCounter = 0
	tsTLHead       = 1
	tsTLCount      = 2
	tsArena        = 3 // heap.ThreadArenaWords words
)

// VM is one configured mini-Ruby virtual machine instance.
type VM struct {
	Opt     Options
	Mem     *simmem.Memory
	Engine  *sched.Engine
	GIL     *gil.GIL
	Sharded *gil.Sharded // nil unless Options.Shards > 1 (ModeHTM)
	Elision *core.Elision
	Heap    *heap.Heap
	Syms    *object.SymTable
	YPs     *compile.YPAlloc
	Comp    *compile.Compiler
	Costs   Costs

	consts  map[object.SymID]object.Value
	globals map[object.SymID]simmem.Addr

	// Core classes.
	ObjectClass *object.RClass
	ClassClass  *object.RClass
	classes     []*object.RClass // all classes, for GC cvar roots

	// Well-known class objects by value kind / RType.
	kindClass [8]*object.RClass
	typeClass [32]*object.RClass

	icBases map[*compile.ISeq]simmem.Addr
	floats  map[*compile.ISeq][]object.Value
	pinned  []*object.RObject

	// methodSerial is the VM-wide method-state generation, bumped by every
	// runtime method (re)definition. Inline-cache guard words store the
	// serial they were filled under, so a redefinition invalidates every
	// cache at once (CRuby's global method-state scheme).
	methodSerial uint64

	globalsRegion simmem.Addr
	globalsUsed   int
	curThreadAddr simmem.Addr // running-thread global (conflict source)

	// Faults is the live fault injector (nil on clean runs).
	Faults *fault.Injector
	// Watchdog is the live degradation watchdog (nil unless enabled).
	Watchdog *core.Watchdog

	ctxPool           []int // free simmem context ids
	htmCtxs           [maxContexts]*htm.Context
	threadStructsBase simmem.Addr
	threads           []*RThread // live Ruby threads
	liveApp           int

	stats    Stats
	fatalErr error
	output   strings.Builder

	// gc safepoint machinery (FGL/Ideal modes)
	gcRequested bool
	gcWaiters   []*RThread

	// extension hook: extra GC marking for native payloads (db rows, ...)
	extraTraverse func(o *object.RObject, mark func(*object.RObject))
	extraRoots    []func(mark func(*object.RObject))
}

// New creates a VM.
func New(opt Options) *VM {
	if opt.Prof == nil {
		panic("vm: Options.Prof required")
	}
	if opt.HeapSlots == 0 {
		opt.HeapSlots = 200_000
	}
	if opt.ArenaBytes == 0 {
		opt.ArenaBytes = 96 << 20
	}
	if opt.TimerInterval == 0 {
		opt.TimerInterval = 250_000
	}
	v := &VM{
		Opt:     opt,
		Syms:    object.NewSymTable(),
		YPs:     &compile.YPAlloc{},
		Costs:   DefaultCosts(),
		consts:  make(map[object.SymID]object.Value),
		globals: make(map[object.SymID]simmem.Addr),
		icBases: make(map[*compile.ISeq]simmem.Addr),
		floats:  make(map[*compile.ISeq][]object.Value),
	}
	v.Comp = compile.New(v.Syms, v.YPs)
	v.Mem = simmem.NewMemory(simmem.Config{LineBytes: opt.Prof.LineBytes}, maxContexts)
	v.Engine = sched.NewEngine(sched.Config{
		HWThreads:  opt.Prof.HWThreads(),
		SMTWays:    opt.Prof.SMTWays,
		SMTPenalty: 1.9,
	})
	v.GIL = gil.New(v.Mem, v.Engine, gil.DefaultCosts())

	hcfg := heap.Config{
		Slots:                opt.HeapSlots,
		ArenaBytes:           opt.ArenaBytes,
		ThreadLocalFreeLists: opt.ThreadLocalFreeLists || opt.Mode == ModeFGL || opt.Mode == ModeIdeal,
		TLBatch:              256,
		ThreadLocalArenas:    opt.ThreadLocalArenas || opt.Mode == ModeFGL || opt.Mode == ModeIdeal,
	}
	if opt.Mode == ModeIdeal {
		// Per-thread heaps: refills so large the global list is touched
		// a handful of times per run.
		hcfg.TLBatch = opt.HeapSlots / 16
	}
	v.Heap = heap.New(v.Mem, hcfg)

	v.globalsRegion = v.Mem.Reserve("globals", 4096)
	v.curThreadAddr = v.Mem.Reserve("curthread-global", simmem.WordBytes)

	for i := 0; i < maxContexts; i++ {
		v.ctxPool = append(v.ctxPool, maxContexts-1-i) // pop from the end: 0 first
	}

	pol, err := policy.New(opt.Policy, opt.Prof)
	if err != nil {
		panic(err.Error())
	}
	if opt.Deadlines != nil {
		pol = policy.NewDeadlineGate(pol, opt.DeadlineSlack)
	}
	v.Elision = core.NewWithPolicy(pol, v.GIL, v.Engine)
	v.Elision.Deadlines = opt.Deadlines
	v.Elision.LiveAppThreads = func() int { return v.liveApp }
	if opt.Shards > 1 && opt.Mode == ModeHTM {
		v.Sharded = gil.NewSharded(v.GIL, opt.Shards)
		for _, g := range v.Sharded.Shards {
			// Shard locks inherit the root's hazard tracking: their holders
			// publish writes non-transactionally too.
			g.HazardTrack = v.GIL.HazardTrack
		}
		v.Elision.AttachSharded(v.Sharded)
	}
	if policy.UsesOCCTier(pol) {
		// The policy routes sections into the software-transaction tier:
		// create its runtime (reserving the commit-sequence word the
		// hardware contexts subscribe to).
		v.Elision.OCCRT = occ.NewRuntime(v.Mem)
	}

	if opt.Watchdog && opt.Trace == nil {
		// The watchdog observes the event stream; give it one even when
		// the caller did not ask for tracing.
		opt.Trace = trace.NewRecorder()
		v.Opt.Trace = opt.Trace
	}

	if opt.Trace != nil {
		v.Mem.Tracer = opt.Trace
		v.Mem.Clock = v.Engine.Now
		v.Engine.Tracer = opt.Trace
		v.GIL.Tracer = opt.Trace
		v.Elision.Tracer = opt.Trace
		if v.Sharded != nil {
			for _, g := range v.Sharded.Shards {
				g.Tracer = opt.Trace
			}
		}
	}

	if opt.Breaker {
		v.Elision.Breaker = core.NewBreaker(opt.BreakerConfig)
		v.Elision.Breaker.Tracer = opt.Trace
	}
	if opt.Watchdog {
		v.Watchdog = core.NewWatchdog(opt.WatchdogConfig)
		v.Watchdog.AttachTo(opt.Trace)
	}
	if v.Faults = fault.NewInjector(opt.Faults, opt.Seed, opt.Trace); v.Faults != nil {
		v.GIL.TimerJitter = v.Faults.TimerInterval
		v.Engine.WakeJitter = v.Faults.WakeDelay
	}

	if opt.Chooser != nil {
		v.Engine.Chooser = opt.Chooser
		v.GIL.Chooser = opt.Chooser
		v.Mem.Chooser = opt.Chooser
		if v.Sharded != nil {
			for _, g := range v.Sharded.Shards {
				g.Chooser = opt.Chooser
			}
		}
	}

	v.stats.ConflictRegions = make(map[string]uint64)
	v.stats.ConflictWriterRegions = make(map[string]uint64)
	v.stats.AbortCauses = make(map[simmem.AbortCause]uint64)
	v.stats.LengthHistogram = make(map[int32]int)

	v.bootstrap()
	return v
}

// fail records a fatal interpreter error and stops the machine.
func (v *VM) fail(err error) {
	if v.fatalErr == nil {
		v.fatalErr = err
	}
	v.Engine.Stop()
}

// Output returns everything the program printed.
func (v *VM) Output() string { return v.output.String() }

// writeOut emits program output.
func (v *VM) writeOut(s string) {
	v.output.WriteString(s)
	if v.Opt.Out != nil {
		io.WriteString(v.Opt.Out, s)
	}
}

// DefineClass creates (or reopens) a class known under a constant.
func (v *VM) DefineClass(name string, super *object.RClass) *object.RClass {
	sym := v.Syms.Intern(name)
	if existing, ok := v.consts[sym]; ok && existing.Kind == object.KRef && existing.Ref.Type == object.TClass {
		return existing.Ref.Cls
	}
	if super == nil && v.ObjectClass != nil {
		super = v.ObjectClass
	}
	cls := &object.RClass{
		Name:        name,
		Super:       super,
		Methods:     map[object.SymID]*object.Method{},
		IvarIdx:     map[object.SymID]int{},
		CVarIdx:     map[object.SymID]int{},
		IvarTableID: int32(len(v.classes) + 1),
	}
	cls.CVarBase = v.Mem.Reserve("cvars", 32*simmem.WordBytes)
	// The class object itself lives outside the collected heap.
	obj := &object.RObject{Type: object.TClass, Class: v.ClassClass, Cls: cls, Index: -1}
	obj.Slot = v.Mem.Reserve("classobj", object.RVALUEBytes)
	cls.Obj = obj
	v.consts[sym] = object.RefVal(obj)
	v.classes = append(v.classes, cls)
	return cls
}

// NativeMethod is the payload of a native (C-extension-style) method.
type NativeMethod struct {
	Fn NativeFn
	// Blocking marks methods that may park the thread or perform I/O:
	// they are restricted operations inside transactions (the transaction
	// aborts and execution falls back to the GIL).
	Blocking bool
	// Cycles is the base cost charged for the call.
	Cycles int64
}

// NativeFn implements a native method. It may return ErrBlocked (via
// th.blockNative) to park the thread; the VM re-invokes it after wake-up.
type NativeFn func(th *RThread, self object.Value, args []object.Value, blk BlockArg, now int64) (object.Value, error)

// DefineNative installs a native instance method on a class.
func (v *VM) DefineNative(cls *object.RClass, name string, arity int, blocking bool, fn NativeFn) {
	sym := v.Syms.Intern(name)
	cls.Methods[sym] = &object.Method{
		Name:   sym,
		Arity:  arity,
		Native: &NativeMethod{Fn: fn, Blocking: blocking, Cycles: DefaultCosts().NativeBase},
	}
}

// statics returns the singleton-method table of a class, stored on the
// class object's Native field.
func statics(cls *object.RClass) map[object.SymID]*object.Method {
	m, _ := cls.Obj.Native.(map[object.SymID]*object.Method)
	if m == nil {
		m = map[object.SymID]*object.Method{}
		cls.Obj.Native = m
	}
	return m
}

// DefineStatic installs a native class-level method (Thread.new, Math.sqrt).
func (v *VM) DefineStatic(cls *object.RClass, name string, arity int, blocking bool, fn NativeFn) {
	sym := v.Syms.Intern(name)
	statics(cls)[sym] = &object.Method{
		Name:   sym,
		Arity:  arity,
		Native: &NativeMethod{Fn: fn, Blocking: blocking, Cycles: DefaultCosts().NativeBase},
	}
}

// SetConst binds a constant.
func (v *VM) SetConst(name string, val object.Value) {
	v.consts[v.Syms.Intern(name)] = val
}

// Const reads a constant.
func (v *VM) Const(name string) (object.Value, bool) {
	val, ok := v.consts[v.Syms.Intern(name)]
	return val, ok
}

// globalAddr returns (allocating on demand) the simulated word of $name.
func (v *VM) globalAddr(sym object.SymID) simmem.Addr {
	if a, ok := v.globals[sym]; ok {
		return a
	}
	a := v.globalsRegion + simmem.Addr(v.globalsUsed*simmem.WordBytes)
	v.globalsUsed++
	if v.globalsUsed*simmem.WordBytes >= 4096 {
		v.fail(errors.New("vm: too many global variables"))
	}
	v.globals[sym] = a
	return a
}

// classOf returns the class used for method dispatch on v.
func (v *VM) classOf(val object.Value) *object.RClass {
	switch val.Kind {
	case object.KRef:
		if val.Ref.Type == object.TClass {
			return v.ClassClass
		}
		return val.Ref.Class
	default:
		return v.kindClass[val.Kind]
	}
}

// materializeISeq assigns inline-cache storage and literal float objects to
// an iseq tree (load time, outside any transaction).
func (v *VM) materializeISeq(iseq *compile.ISeq) error {
	if _, done := v.icBases[iseq]; done {
		return nil
	}
	n := iseq.NumICs
	if n == 0 {
		n = 1
	}
	v.icBases[iseq] = v.Mem.Reserve("ic", n*2*simmem.WordBytes)
	if len(iseq.Floats) > 0 {
		vals := make([]object.Value, len(iseq.Floats))
		for i, fl := range iseq.Floats {
			o, err := v.Heap.AllocObject(v.Mem, heap.ThreadSlots{}, object.TFloat, v.typeClass[object.TFloat])
			if err != nil {
				return fmt.Errorf("vm: allocating literal float: %w", err)
			}
			v.Mem.Store(o.AddrOf(object.SlotA), simmem.Word{Bits: floatBits(fl)})
			vals[i] = object.RefVal(o)
			v.pinned = append(v.pinned, o)
		}
		v.floats[iseq] = vals
	}
	for _, ch := range iseq.Children {
		if err := v.materializeISeq(ch); err != nil {
			return err
		}
	}
	return nil
}

// icAddr returns the simulated address of inline-cache slot `slot` of iseq.
func (v *VM) icAddr(iseq *compile.ISeq, slot int32) simmem.Addr {
	return v.icBases[iseq] + simmem.Addr(slot)*2*simmem.WordBytes
}

// CompileSource parses, compiles and materializes a program.
func (v *VM) CompileSource(src, name string) (*compile.ISeq, error) {
	iseq, err := v.Comp.CompileSource(src, name)
	if err != nil {
		return nil, err
	}
	if err := v.materializeISeq(iseq); err != nil {
		return nil, err
	}
	return iseq, nil
}

// RunResult summarizes a completed run.
type RunResult struct {
	Cycles int64  // virtual makespan
	Output string // program output
	Stats  *Stats
}

// Run executes a compiled top-level iseq as the main Ruby thread and drives
// the machine until every thread finishes.
func (v *VM) Run(iseq *compile.ISeq) (*RunResult, error) {
	main := v.newRThread(iseq.Name)
	if main == nil {
		return nil, errors.New("vm: no thread contexts available")
	}
	main.pushEntry(iseq, object.RefVal(v.mainObject()), object.Nil, nil)
	main.spawn(0)

	if v.Opt.Mode == ModeGIL {
		v.GIL.StartTimer(v.Opt.TimerInterval, func() bool { return v.liveApp > 0 })
	}
	if v.Opt.MaxCycles > 0 {
		var watchdog func(now int64)
		watchdog = func(now int64) {
			if now >= v.Opt.MaxCycles {
				v.fail(fmt.Errorf("vm: exceeded MaxCycles=%d; threads:%s", v.Opt.MaxCycles, v.DebugThreads()))
				return
			}
			if v.liveApp > 0 {
				v.Engine.At(now+v.Opt.MaxCycles/64, watchdog)
			}
		}
		v.Engine.At(v.Opt.MaxCycles/64, watchdog)
	}

	err := v.Engine.Run()
	if v.fatalErr != nil {
		return nil, v.fatalErr
	}
	if err != nil {
		return nil, err
	}
	return v.finishRun(), nil
}

// finishRun aggregates statistics. The result carries a copy of the
// statistics, not a pointer into the VM, so a caller that keeps only the
// Stats does not keep the whole simulated machine reachable.
func (v *VM) finishRun() *RunResult {
	s := &v.stats
	s.GCs = v.Heap.Stats.GCs
	s.GCCycles = v.Heap.Stats.GCCycles
	if v.Opt.Mode == ModeHTM {
		s.HTM = htm.NewStats()
		for _, c := range v.htmCtxs {
			if c != nil {
				s.HTM.Add(c.Stats)
			}
		}
		s.GILFallbacks = v.Elision.Fallbacks
		s.Adjustments = v.Elision.Adjustments
		for r, n := range v.Mem.ConflictCounts() {
			s.ConflictRegions[r] += n
		}
		for r, n := range v.Mem.ConflictWriterCounts() {
			s.ConflictWriterRegions[r] += n
		}
		for c, n := range s.HTM.ByCause {
			s.AbortCauses[c] += n
		}
		for _, l := range v.Elision.Lengths() {
			if l > 0 {
				s.LengthHistogram[l]++
			}
		}
		if b := v.Elision.Breaker; b != nil {
			s.BreakerTransitions = append([]core.BreakerTransition(nil), b.Transitions...)
			s.BreakerOpens = b.Opens
		}
		if rt := v.Elision.OCCRT; rt != nil {
			s.OCC = rt.Stats.Clone()
		}
		if v.Sharded != nil {
			s.RootGIL = v.GIL.Stats
			for _, g := range v.Sharded.Shards {
				s.ShardGIL = append(s.ShardGIL, g.Stats)
			}
			s.ShardFallbacks = append([]uint64(nil), v.Elision.ShardFallbacks...)
			s.CrossShardLeaks = v.Elision.CrossShardLeaks
		}
	}
	s.FaultCounts = v.Faults.Counts()
	s.Degradations = v.Watchdog.Counts()
	st := *s
	return &RunResult{
		Cycles: v.Engine.Now(),
		Output: v.output.String(),
		Stats:  &st,
	}
}

// mainObject is the toplevel self.
func (v *VM) mainObject() *object.RObject {
	val, ok := v.Const("TOPLEVEL")
	if ok {
		return val.Ref
	}
	o, err := v.Heap.AllocObject(v.Mem, heap.ThreadSlots{}, object.TObject, v.ObjectClass)
	if err != nil {
		panic(err)
	}
	v.pinned = append(v.pinned, o)
	v.SetConst("TOPLEVEL", object.RefVal(o))
	return o
}

func floatBits(f float64) uint64     { return math.Float64bits(f) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }
