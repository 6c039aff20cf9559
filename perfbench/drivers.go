package main

import (
	"fmt"
	"time"

	"htmgil/internal/db"
	"htmgil/internal/gil"
	"htmgil/internal/heap"
	"htmgil/internal/htm"
	"htmgil/internal/netsim"
	"htmgil/internal/npb"
	"htmgil/internal/object"
	"htmgil/internal/occ"
	"htmgil/internal/rbregexp"
	"htmgil/internal/sched"
	"htmgil/internal/simmem"
	"htmgil/internal/vm"
	"htmgil/internal/webrick"
)

// A layer driver times one public function of one layer on an operation
// shape taken from the workload it maps to. Each batch does its set-up
// untimed and returns the operations it timed and how long they took.
type driver struct {
	name  string // metric name
	unit  string // "ns" or "ms" per operation
	batch func() (ops int, d time.Duration, err error)
}

// driverBatches is how many batches each driver runs; it reports the median
// batch.
const driverBatches = 5

// drivers lists every layer driver, with the workload and end-to-end metric
// each should move (see README.md).
func drivers() []driver {
	return []driver{
		// serving: host_s. A 1-store transaction on a Tx whose write buffer
		// once held 4096 words, against the 16-store commit below.
		{"simmem.small_tx_after_large_ns", "ns", simmemSmallAfterLarge},
		// npb-htm: host_s.
		{"simmem.tx_load_ns", "ns", simmemTxLoad},
		{"simmem.tx_store_commit_ns", "ns", simmemTxStoreCommit},
		// npb-gil: host_s.
		{"simmem.direct_ns", "ns", simmemDirect},
		{"vm.dispatch_ns", "ns", vmDispatch(fixnumLoop, vm.ModeGIL)},
		{"gil.handoff_ns", "ns", gilHandoff},
		// npb-htm: host_s.
		{"vm.float_dispatch_ns", "ns", vmDispatch(floatLoop, vm.ModeHTM)},
		{"heap.alloc_ns", "ns", heapAlloc},
		{"htm.begin_end_ns", "ns", htmBeginEnd},
		{"sched.step_ns.t12", "ns", schedStep},
		// npb-htm and npb-gil: setup_s.
		{"compile.npb_ms", "ms", compileNPB},
		{"vm.new_ms", "ms", vmNew},
		// datastore: host_s.
		{"occ.commit_ns", "ns", occCommit},
		{"occ.validate_ns", "ns", occValidate},
		{"db.point_update_ns", "ns", dbPointUpdate},
		// serving: host_s.
		{"netsim.accept_ns", "ns", netsimAccept},
		{"rbregexp.match_ns", "ns", regexpMatch},
	}
}

// measure runs a driver's batches and returns the median cost per
// operation in the driver's unit.
func (d driver) measure() (float64, error) {
	per := make([]float64, 0, driverBatches)
	for i := 0; i < driverBatches; i++ {
		ops, dur, err := d.batch()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", d.name, err)
		}
		scale := 1.0
		if d.unit == "ms" {
			scale = 1e-6
		}
		per = append(per, float64(dur.Nanoseconds())/float64(ops)*scale)
	}
	return median(per), nil
}

func newMem(ctxs int) (*simmem.Memory, simmem.Addr) {
	m := simmem.NewMemory(simmem.Config{LineBytes: 256}, ctxs)
	return m, m.Reserve("data", 1<<20)
}

func simmemSmallAfterLarge() (int, time.Duration, error) {
	m, base := newMem(2)
	tx := m.Tx(0)
	tx.Begin(1<<20, 1<<20)
	for j := 0; j < 4096; j++ {
		tx.Store(base+simmem.Addr(j)*simmem.WordBytes, simmem.Word{Bits: uint64(j)})
	}
	if !tx.Commit() {
		return 0, 0, fmt.Errorf("large commit failed")
	}
	const n = 2000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		tx.Begin(1<<20, 1<<20)
		tx.Store(base, simmem.Word{Bits: uint64(i)})
		if !tx.Commit() {
			return 0, 0, fmt.Errorf("commit failed")
		}
	}
	return n, time.Since(t0), nil
}

func simmemTxLoad() (int, time.Duration, error) {
	m, base := newMem(2)
	tx := m.Tx(0)
	const n, lines = 400_000, (1 << 20) / 256
	tx.Begin(1<<20, 1<<20)
	t0 := time.Now()
	// Four consecutive words of one line, then the next line: the
	// interpreter's mix of same-line runs and strides.
	for i := 0; i < n; i++ {
		tx.Load(base + simmem.Addr((i>>2)%lines)*256 + simmem.Addr(i&3)*simmem.WordBytes)
	}
	d := time.Since(t0)
	if !tx.Commit() {
		return 0, 0, fmt.Errorf("commit failed")
	}
	return n, d, nil
}

func simmemTxStoreCommit() (int, time.Duration, error) {
	m, base := newMem(2)
	tx := m.Tx(0)
	const n = 20_000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		tx.Begin(1<<20, 1<<20)
		for j := 0; j < 16; j++ {
			tx.Store(base+simmem.Addr(j)*simmem.WordBytes, simmem.Word{Bits: uint64(i)})
		}
		if !tx.Commit() {
			return 0, 0, fmt.Errorf("commit failed")
		}
	}
	return n, time.Since(t0), nil
}

func simmemDirect() (int, time.Duration, error) {
	m, base := newMem(2)
	const n, words = 1_000_000, (1 << 20) / simmem.WordBytes
	t0 := time.Now()
	for i := 0; i < n; i++ {
		a := base + simmem.Addr(i%words)*simmem.WordBytes
		m.Store(a, simmem.Word{Bits: uint64(i)})
		m.Load(a)
	}
	return n, time.Since(t0), nil
}

const fixnumLoop = `i = 0
s = 0
while i < 200000
  s += i
  i += 1
end
puts s
`

const floatLoop = `i = 0
x = 0.0
while i < 40000
  x = x + 1.5 * 0.5
  i += 1
end
puts x
`

// vmDispatch times Run of a one-thread loop and reports host time per
// executed bytecode.
func vmDispatch(src string, mode vm.Mode) func() (int, time.Duration, error) {
	return func() (int, time.Duration, error) {
		m := vm.New(vm.DefaultOptions(htm.ZEC12(), mode))
		iseq, err := m.CompileSource(src, "loop")
		if err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		res, err := m.Run(iseq)
		d := time.Since(t0)
		if err != nil {
			return 0, 0, err
		}
		if res.Stats.Bytecodes == 0 {
			return 0, 0, fmt.Errorf("no bytecodes counted")
		}
		return int(res.Stats.Bytecodes), d, nil
	}
}

func gilHandoff() (int, time.Duration, error) {
	e := sched.NewEngine(sched.Config{HWThreads: 2, SMTWays: 1})
	m, _ := newMem(2)
	g := gil.New(m, e, gil.DefaultCosts())
	const rounds = 20_000
	for i := 0; i < 2; i++ {
		var th *sched.Thread
		left, holding := rounds, false
		th = e.Spawn("t", 0, func(now int64) sched.StepResult {
			if !holding {
				c, ok := g.BlockingAcquire(th, now)
				holding = true // when blocked, the thread wakes owning the GIL
				if !ok {
					return sched.StepResult{Cycles: 1, Status: sched.Blocked}
				}
				return sched.StepResult{Cycles: c, Status: sched.Running}
			}
			holding = false
			left--
			c := g.Release(th, now+100) + 100
			if left == 0 {
				return sched.StepResult{Cycles: c, Status: sched.Done}
			}
			return sched.StepResult{Cycles: c, Status: sched.Running}
		})
	}
	t0 := time.Now()
	if err := e.Run(); err != nil {
		return 0, 0, err
	}
	return int(g.Stats.Acquisitions), time.Since(t0), nil
}

func heapAlloc() (int, time.Duration, error) {
	m, _ := newMem(1)
	cfg := heap.DefaultConfig()
	cfg.Slots, cfg.ArenaBytes = 20_000, 1<<20
	h := heap.New(m, cfg)
	ts := heap.ThreadSlots{TLHead: m.Reserve("tlhead", simmem.WordBytes), TLCount: m.Reserve("tlcount", simmem.WordBytes)}
	const n = 200_000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		o, err := h.AllocObject(m, ts, object.TFloat, nil)
		if err != nil {
			return 0, 0, err
		}
		h.FreeObject(m, ts, o)
	}
	return n, time.Since(t0), nil
}

func htmBeginEnd() (int, time.Duration, error) {
	prof := htm.ZEC12()
	m, base := newMem(1)
	ctx := htm.NewContext(prof, m, 0, 1)
	const n = 100_000
	var now int64
	t0 := time.Now()
	for i := 0; i < n; i++ {
		now += ctx.Begin(now)
		ctx.Tx.Store(base, simmem.Word{Bits: uint64(i)})
		c, ok := ctx.End(now)
		now += c
		if !ok {
			_, c := ctx.Abort()
			now += c
		}
	}
	return n, time.Since(t0), nil
}

func schedStep() (int, time.Duration, error) {
	const threads, steps = 12, 40_000
	e := sched.NewEngine(sched.Config{HWThreads: threads, SMTWays: 1})
	for i := 0; i < threads; i++ {
		left, cost := steps, int64(97+i)
		e.Spawn("t", 0, func(now int64) sched.StepResult {
			left--
			if left == 0 {
				return sched.StepResult{Cycles: cost, Status: sched.Done}
			}
			return sched.StepResult{Cycles: cost, Status: sched.Running}
		})
	}
	t0 := time.Now()
	if err := e.Run(); err != nil {
		return 0, 0, err
	}
	return threads * steps, time.Since(t0), nil
}

func compileNPB() (int, time.Duration, error) {
	var d time.Duration
	for _, k := range npb.Kernels {
		m := vm.New(vm.DefaultOptions(htm.ZEC12(), vm.ModeHTM))
		src := npb.Source(k, 12, npb.ParamsFor(k, npb.ClassS))
		t0 := time.Now()
		if _, err := m.CompileSource(src, string(k)); err != nil {
			return 0, 0, err
		}
		d += time.Since(t0)
	}
	return len(npb.Kernels), d, nil
}

func vmNew() (int, time.Duration, error) {
	const n = 4
	t0 := time.Now()
	for i := 0; i < n; i++ {
		vm.New(vm.DefaultOptions(htm.ZEC12(), vm.ModeHTM))
	}
	return n, time.Since(t0), nil
}

func occCommit() (int, time.Duration, error) {
	m, base := newMem(2)
	tx := occ.NewRuntime(m).NewTx(0)
	const n = 50_000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		tx.Begin()
		for j := 0; j < 4; j++ {
			a := base + simmem.Addr(j)*256
			tx.Store(a, simmem.Word{Bits: tx.Load(a).Bits + 1})
		}
		if _, ok := tx.Commit(); !ok {
			return 0, 0, fmt.Errorf("commit failed")
		}
	}
	return n, time.Since(t0), nil
}

// occValidate commits read-only transactions of 64 reads after an
// unrelated store has moved the memory version, so each commit revalidates
// the whole read log; it reports time per logged read.
func occValidate() (int, time.Duration, error) {
	m, base := newMem(2)
	other := m.Reserve("other", simmem.WordBytes)
	tx := occ.NewRuntime(m).NewTx(0)
	const n, reads = 10_000, 64
	t0 := time.Now()
	for i := 0; i < n; i++ {
		tx.Begin()
		for j := 0; j < reads; j++ {
			tx.Load(base + simmem.Addr(j)*256)
		}
		m.Store(other, simmem.Word{Bits: uint64(i)})
		if _, ok := tx.Commit(); !ok {
			return 0, 0, fmt.Errorf("commit failed")
		}
	}
	return n * reads, time.Since(t0), nil
}

const pointUpdates = 2000

var pointUpdateSrc = fmt.Sprintf(`$db = SQLite3.new
$db.execute("CREATE KEYSPACE usertable ROWS 4096")
i = 0
while i < %d
  $db.execute("UPDATE usertable SET val = #{i} WHERE key = #{(i * 7919) %% 4096}")
  i += 1
end
`, pointUpdates)

func dbPointUpdate() (int, time.Duration, error) {
	m := vm.New(vm.DefaultOptions(htm.DatastoreNode(), vm.ModeHTM))
	db.Install(m)
	iseq, err := m.CompileSource(pointUpdateSrc, "updates")
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	if _, err := m.Run(iseq); err != nil {
		return 0, 0, err
	}
	return pointUpdates, time.Since(t0), nil
}

const acceptServer = `server = TCPServer.new(80)
while true
  s = server.accept
  s.read_request
  s.write("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
  s.close
end
`

// netsimAccept serves closed-loop requests through the socket classes
// (accept, read_request, write, close) and reports time per request.
func netsimAccept() (int, time.Duration, error) {
	m := vm.New(vm.DefaultOptions(htm.ZEC12(), vm.ModeGIL))
	net := netsim.NewNetwork(m.Engine)
	netsim.Install(m, net)
	iseq, err := m.CompileSource(acceptServer, "accept")
	if err != nil {
		return 0, 0, err
	}
	const n = 1000
	gen := &netsim.LoadGen{Net: net, Eng: m.Engine, Port: 80, Request: webrick.Request,
		ThinkTime: 10_000, Target: n, OnDone: m.Engine.Stop}
	gen.Start(1)
	t0 := time.Now()
	if _, err := m.Run(iseq); err != nil {
		return 0, 0, err
	}
	if gen.Completed < n {
		return 0, 0, fmt.Errorf("served %d of %d", gen.Completed, n)
	}
	return n, time.Since(t0), nil
}

// regexpMatch runs the request-line and header patterns of the webrick
// handler over the lines of its request.
func regexpMatch() (int, time.Duration, error) {
	reqline := rbregexp.MustCompile("^(GET|POST) ([^ ]+) HTTP/([0-9.]+)")
	hdrline := rbregexp.MustCompile("^([A-Za-z-]+): *(.+)$")
	subjects := []string{"Host: sim.example", "User-Agent: open/1.0", "Accept: text/html", "Connection: close"}
	const n = 20_000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if !reqline.Match("GET /index.html HTTP/1.1").Matched() || !hdrline.Match(subjects[i&3]).Matched() {
			return 0, 0, fmt.Errorf("no match")
		}
	}
	return 2 * n, time.Since(t0), nil
}
