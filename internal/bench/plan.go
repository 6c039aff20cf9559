package bench

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"htmgil/internal/db"
	"htmgil/internal/fault"
	"htmgil/internal/htm"
	"htmgil/internal/keyspace"
	"htmgil/internal/netsim"
	"htmgil/internal/npb"
	"htmgil/internal/railslite"
	"htmgil/internal/resilience"
	"htmgil/internal/trace"
	"htmgil/internal/vm"
	"htmgil/internal/webrick"
)

// Every experiment is enumerated into a plan before anything executes: each
// configuration point becomes one self-contained exec closure (building its
// own Memory/Engine/VM, so points share nothing), and every piece of table
// output becomes an ordered render op. flush then executes the points — on a
// worker pool when the Session's parallelism allows, sequentially otherwise —
// and merges results strictly in point order, so tables, Reports, and trace
// summaries are byte-identical whatever the worker count.

var errValidation = errors.New("validation failed")

// point is one independently executable unit of a plan — one simulator run
// — and, once the plan has flushed, the handle render ops read its result
// through. It keeps only what those ops read: the Report (cycles,
// throughput, abort ratio, latency digest and counters), the run's detached
// Stats and its aggregator. It never keeps the workload's own result, so a
// finished point does not keep its simulated machine reachable.
type point struct {
	Report
	st     *vm.Stats
	agg    *trace.Aggregator
	label  string // error-wrapping context; empty = propagate bare
	exec   func() error
	hasRep bool
	err    error
}

// plan accumulates points and render ops for one or more experiments.
type plan struct {
	s   *Session
	pts []*point
	ops []func(w io.Writer) error
}

func (s *Session) newPlan() *plan { return &plan{s: s} }

// parallelism returns the worker count for executing points: Session.Parallel
// when positive, else runtime.GOMAXPROCS(0).
func (s *Session) parallelism() int {
	if s.Parallel > 0 {
		return s.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// printf appends a static piece of table output. Arguments are formatted at
// flush time but must not depend on point results; use cell for those.
func (p *plan) printf(format string, args ...any) {
	p.ops = append(p.ops, func(w io.Writer) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	})
}

// cell appends a render op that may read point handles.
func (p *plan) cell(fn func(w io.Writer) error) {
	p.ops = append(p.ops, fn)
}

// add enumerates one simulator run. The aggregator is attached when traced
// is set or the Session's TraceSummary is on; otherwise the recorder is nil,
// keeping the instrumented runtime on its nil-check fast path. run executes
// the workload with the recorder and fills the point through record.
func (p *plan) add(label string, traced bool, run func(pt *point, rec *trace.Recorder) error) *point {
	pt := &point{label: label}
	s := p.s
	pt.exec = func() error {
		var rec *trace.Recorder
		if traced || s.TraceSummary {
			pt.agg = trace.NewAggregator()
			rec = trace.NewRecorder(pt.agg)
		}
		return run(pt, rec)
	}
	p.pts = append(p.pts, pt)
	return pt
}

// record fills the point's Report and keeps the run's Stats. A run under a
// fault spec also records the provenance that reproduces it byte for byte
// — the canonical spec text and the effective fault-stream seed — and the
// breaker-level time-to-recover.
func (pt *point) record(exp string, prof *htm.Profile, workload, config string, threads, clients int,
	cycles int64, tp float64, st *vm.Stats, spec *fault.Spec) {
	pt.st = st
	pt.Report = newReport(exp, prof.Name, workload, config, threads, clients, cycles, tp, st, pt.agg)
	pt.hasRep = true
	if pt.FaultSpec = spec.String(); pt.FaultSpec != "" {
		pt.Seed = faultSeed(spec, prof)
	}
	pt.RecoverCycles = timeToRecover(st, spec)
}

// kernel enumerates one NPB point under explicit options. The point fails
// when the kernel's numerics do not validate: no configuration, fault or
// policy may corrupt a run, only slow it down.
func (p *plan) kernel(label, exp, config string, b npb.Bench, opt vm.Options, threads int, c npb.Class, traced bool) *point {
	return p.add(label, traced, func(pt *point, rec *trace.Recorder) error {
		o := opt
		o.Trace = rec
		r, err := npb.Run(b, o, threads, npb.ParamsFor(b, c))
		if err != nil {
			return err
		}
		if !r.Valid {
			return errValidation
		}
		pt.record(exp, opt.Prof, string(b), config, threads, 0, r.Cycles, 0, r.Stats, opt.Faults)
		return nil
	})
}

// serve runs one of the paper's two server applications under wc: WEBrick,
// or Rails-lite on the fields it shares with WEBrick. It is the one switch
// between them.
func serve(app string, wc webrick.Config) (*webrick.Result, error) {
	if app == "webrick" {
		return webrick.Run(wc)
	}
	r, err := railslite.Run(railslite.Config{Prof: wc.Prof, Mode: wc.Mode, Policy: wc.Policy,
		Clients: wc.Clients, Requests: wc.Requests, Workers: wc.Workers, Open: wc.Open, Trace: wc.Trace,
		Faults: wc.Faults, Breaker: wc.Breaker, Watchdog: wc.Watchdog, Resilience: wc.Resilience})
	if err != nil {
		return nil, err
	}
	return &webrick.Result{Clients: r.Clients, Completed: r.Completed, Cycles: r.Cycles,
		Throughput: r.Throughput, AbortRatio: r.AbortRatio, Stats: r.Stats, Open: r.Open, Res: r.Res}, nil
}

// server enumerates one closed-loop server point: wc.Clients clients
// issuing wc.Requests requests back to back (Figure 7).
func (p *plan) server(label, exp, app, config string, wc webrick.Config, traced bool) *point {
	return p.add(label, traced, func(pt *point, rec *trace.Recorder) error {
		c := wc
		c.Trace = rec
		r, err := serve(app, c)
		if err != nil {
			return err
		}
		pt.record(exp, wc.Prof, app, config, 0, wc.Clients, r.Cycles, r.Throughput, r.Stats, wc.Faults)
		return nil
	})
}

// openServer enumerates one open-loop server point driven by a fresh copy
// of gen, which carries the traffic shape. With recoverFrom > 0 the
// time-to-recover is judged at the request level instead of from the
// breaker: the cycles from that mark until SLO attainment stays above
// threshold for the rest of the run (see resilience.RecoveryTracker).
func (p *plan) openServer(label, exp, app, config string, wc webrick.Config, gen netsim.OpenLoadGen, recoverFrom int64) *point {
	return p.add(label, false, func(pt *point, rec *trace.Recorder) error {
		g := gen
		var tracker *resilience.RecoveryTracker
		if recoverFrom > 0 {
			tracker = &resilience.RecoveryTracker{}
			g.OnOutcome = func(_, route int, arrival, done int64, outcome string) {
				ok := outcome == netsim.OutcomeCompleted &&
					done-arrival <= g.Routes[route].SLOCycles
				tracker.Observe(done, ok)
			}
		}
		c := wc
		c.Open, c.Trace = &g, rec
		r, err := serve(app, c)
		if err != nil {
			return err
		}
		pt.record(exp, wc.Prof, app, config, wc.Workers, g.Sessions, r.Cycles, r.Throughput, r.Stats, wc.Faults)
		pt.Cores = wc.Prof.Cores
		pt.Workers = wc.Workers
		pt.Sessions = g.Sessions
		pt.RatePerSec = g.Arrivals.RatePerSec
		pt.Arrivals = g.Generated
		pt.ConnsTotal = g.ConnsTotal
		pt.ConnsPeak = g.ConnsPeak
		pt.Shed = g.Shed
		pt.GaveUp = g.GaveUp
		pt.DeadlineExceeded = g.DeadlineExceeded
		lat, routes := latencyDigest(&g)
		pt.Latency = &lat
		pt.RouteLatency = routes
		if tracker != nil {
			v := tracker.RecoverAt(recoverFrom)
			pt.RecoverCycles = &v
		}
		if r.Res != nil && r.Res.Brownout != nil {
			pt.BrownoutTransitions = r.Res.Brownout.Transitions
		}
		return nil
	})
}

// datastore enumerates one keyspace workload run: build the driver, install
// the store and the session natives, run the generated program.
func (p *plan) datastore(label string, wcfg keyspace.Config, cfg Config, shards, threads int) *point {
	wcfg.Threads = threads
	return p.add(label, false, func(pt *point, rec *trace.Recorder) error {
		drv, err := keyspace.NewDriver(wcfg)
		if err != nil {
			return err
		}
		prof := htm.DatastoreNode()
		opt := cfg.options(prof)
		opt.Shards = shards
		opt.Trace = rec
		machine := vm.New(opt)
		db.Install(machine)
		drv.Install(machine)
		iseq, err := machine.CompileSource(drv.Program(), "datastore-"+wcfg.Workload)
		if err != nil {
			return err
		}
		res, err := machine.Run(iseq)
		if err != nil {
			return err
		}
		ops := float64(threads) * float64(wcfg.Ops)
		tp := ops * float64(vm.CyclesPerSecond) / float64(res.Cycles)
		pt.record("datastore", prof, "ycsb-"+wcfg.Workload, cfg.Name, threads, 0, res.Cycles, tp, res.Stats, nil)
		pt.Shards = shards
		for _, n := range res.Stats.ShardFallbacks {
			pt.ShardFallbacks += n
		}
		pt.CrossShardLeaks = res.Stats.CrossShardLeaks
		return nil
	})
}

// raw enumerates a self-contained point (no Report) that renders its whole
// output into a buffer; the buffer is replayed at its place in the op order.
func (p *plan) raw(label string, fn func(w io.Writer) error) {
	var buf bytes.Buffer
	pt := &point{label: label, exec: func() error { return fn(&buf) }}
	p.pts = append(p.pts, pt)
	p.cell(func(w io.Writer) error {
		_, err := w.Write(buf.Bytes())
		return err
	})
}

// grid enumerates and renders the table shape every sweep shares: a header
// naming the columns, then one line per row value (threads or clients) with
// one cell per column. at enumerates the point of a row value and column
// index; cell formats a column's point once the plan has flushed. Row labels
// are lw wide and header columns cw wide. The returned matrix, indexed like
// rows and cols, lets follow-up tables read the points of one row.
func (p *plan) grid(rowHead string, lw int, rows []int, cols []string, cw int,
	at func(row, col int) *point, cell func(col int, r *point) string) [][]*point {
	p.printf("%-*s", lw, rowHead)
	for _, c := range cols {
		p.printf("%*s", cw, c)
	}
	p.printf("\n")
	out := make([][]*point, len(rows))
	for i, row := range rows {
		p.printf("%-*d", lw, row)
		for j := range cols {
			r := at(row, j)
			out[i] = append(out[i], r)
			p.cell(func(w io.Writer) error {
				_, err := io.WriteString(w, cell(j, r))
				return err
			})
		}
		p.printf("\n")
	}
	return out
}

// flush executes every enumerated point and then merges in point order:
// Reports first, then the render ops against the Session writer. Whatever
// the worker count, the merged output is identical; on a point error the
// Reports of the points preceding it (in point order) are kept, matching the
// sequential harness, and rendering is skipped.
func (p *plan) flush() error {
	s := p.s
	workers := s.parallelism()
	if workers > len(p.pts) {
		workers = len(p.pts)
	}
	if workers <= 1 {
		for _, pt := range p.pts {
			if pt.err = pt.exec(); pt.err != nil {
				break
			}
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(p.pts) {
						return
					}
					pt := p.pts[i]
					pt.err = pt.exec()
				}
			}()
		}
		wg.Wait()
	}
	for _, pt := range p.pts {
		if pt.err != nil {
			if pt.label != "" {
				return fmt.Errorf("%s: %w", pt.label, pt.err)
			}
			return pt.err
		}
		if pt.hasRep {
			s.Reports = append(s.Reports, pt.Report)
		}
	}
	if s.W == nil {
		return nil
	}
	for _, op := range p.ops {
		if err := op(s.W); err != nil {
			return err
		}
	}
	return nil
}
