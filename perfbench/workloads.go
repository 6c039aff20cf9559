package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"htmgil/internal/compile"
	"htmgil/internal/db"
	"htmgil/internal/gil"
	"htmgil/internal/htm"
	"htmgil/internal/keyspace"
	"htmgil/internal/netsim"
	"htmgil/internal/npb"
	"htmgil/internal/railslite"
	"htmgil/internal/rbregexp"
	"htmgil/internal/vm"
	"htmgil/internal/webrick"
)

// workload is one named set of inputs. Its points are generated from the
// seed; summary turns one pass's results into the workload's simulated
// outcome.
type workload struct {
	name    string
	points  func(seed int64) []point
	summary func(ps *passResult) outcome
}

// outcome is a workload's simulated result beyond the generic Stats
// counters: the workload-specific metrics (0 where they do not apply) and
// the digest lines that show them.
type outcome struct {
	metrics map[string]float64
	lines   []string
}

// outcomeMetrics are the workload-specific simulated results, reported in
// the traced run (each workload fills in its own, the rest read 0) and in
// the digest of every run.
var outcomeMetrics = []struct{ name, unit string }{
	{"sim_speedup", "x"},
	{"paper_gap", "ln"},
	{"sim_kops_per_vs", "kops/vs"},
	{"sim_p50_ms", "ms"},
	{"sim_p99_ms", "ms"},
	{"slo_attainment", "frac"},
}

// workloads are the benchmark's workloads; README.md gives the reason for
// each.
func workloads() []workload {
	return []workload{
		// The paper's headline: HTM-dynamic at 12 threads against the GIL at 1.
		{"npb-htm", npbHTMPoints, npbHTMSummary},
		// The control: the same kernels under the GIL never open a simmem.Tx.
		{"npb-gil", npbGILPoints, noSummary},
		// The only traffic through db, keyspace, occ and the sharded GILs.
		{"datastore", datastorePoints, datastoreSummary},
		// The only traffic through netsim, webrick, railslite and rbregexp.
		{"serving", servingPoints, servingSummary},
	}
}

func noSummary(*passResult) outcome { return outcome{} }

// ---- NPB ----

// paperHTMDynamic is the paper's HTM-dynamic speedup over 1-thread GIL at
// 12 threads on zEC12, read off Figure 5 (EXPERIMENTS.md, Figure 5 table).
// It is the only reference result the repository holds.
var paperHTMDynamic = map[npb.Bench]float64{
	npb.BT: 3.3, npb.CG: 1.9, npb.FT: 4.4, npb.IS: 1.9, npb.LU: 1.9, npb.MG: 2.6, npb.SP: 2.3,
}

// npbRef is a kernel's native reference result, computed once per process
// outside any timed step.
type npbRef struct {
	valid    bool
	checksum string  // IS: exact key count
	cg       float64 // CG: final x.x
}

var npbRefs = map[npb.Bench]*npbRef{}

func npbReference(k npb.Bench, p npb.Params) *npbRef {
	if r, ok := npbRefs[k]; ok {
		return r
	}
	r := &npbRef{valid: npb.ReferenceValid(k, p)}
	switch k {
	case npb.IS:
		r.checksum = npb.ReferenceChecksumIS(p)
	case npb.CG:
		r.cg = npb.ReferenceChecksumCG(p)
	}
	npbRefs[k] = r
	return r
}

// npbPoint runs one kernel at class S on zEC12 and validates its result
// line against the native reference.
func npbPoint(k npb.Bench, mode vm.Mode, threads int, seed int64, measured bool) point {
	tag := "gil"
	if mode == vm.ModeHTM {
		tag = "htm"
	}
	return point{name: fmt.Sprintf("%s/%s%d", k, tag, threads), measured: measured, exec: func(p *pointResult) error {
		p.ops = 1
		params := npb.ParamsFor(k, npb.ClassS)
		ref := npbReference(k, params)
		opt := vm.DefaultOptions(htm.ZEC12(), mode)
		opt.Seed = seed
		var (
			m    *vm.VM
			iseq *compile.ISeq
			res  *vm.RunResult
		)
		if err := p.setupStep("vm.new", func() error { m = vm.New(opt); return nil }); err != nil {
			return err
		}
		if err := p.setupStep("compile", func() (err error) {
			iseq, err = m.CompileSource(npb.Source(k, threads, params), string(k))
			return err
		}); err != nil {
			return err
		}
		if err := p.runStep("run", func() (err error) { res, err = m.Run(iseq); return err }); err != nil {
			return err
		}
		p.cycles, p.stats, p.gil = res.Cycles, ownStats(res.Stats), gilStats(m)
		valid, checksum, err := npbResultLine(res.Output, k)
		p.digest = []string{"valid=" + strconv.FormatBool(valid), "checksum=" + checksum}
		if err == nil {
			err = npbCheck(k, valid, checksum, ref)
		}
		return err
	}}
}

// npbResultLine parses the kernel's "RESULT <k> valid=<b> checksum=<c>" line.
func npbResultLine(out string, k npb.Bench) (valid bool, checksum string, err error) {
	marker := fmt.Sprintf("RESULT %s valid=", k)
	i := strings.Index(out, marker)
	if i < 0 {
		return false, "", fmt.Errorf("%s: no result line", k)
	}
	rest := strings.SplitN(out[i+len(marker):], "\n", 2)[0]
	valid = strings.HasPrefix(rest, "true")
	if ci := strings.Index(rest, "checksum="); ci >= 0 {
		checksum = strings.TrimSpace(rest[ci+len("checksum="):])
	}
	return valid, checksum, nil
}

// npbCheck validates a kernel run: its own valid flag, the native
// reference's, and the checksums the references compute exactly.
func npbCheck(k npb.Bench, valid bool, checksum string, ref *npbRef) error {
	if !valid || !ref.valid {
		return fmt.Errorf("%s: invalid (ruby %v, native %v)", k, valid, ref.valid)
	}
	switch k {
	case npb.IS:
		if checksum != ref.checksum {
			return fmt.Errorf("is: checksum %s, native %s", checksum, ref.checksum)
		}
	case npb.CG:
		got, err := strconv.ParseFloat(checksum, 64)
		if err != nil || math.Abs(got-ref.cg) > 1e-6 {
			return fmt.Errorf("cg: checksum %s, native %v", checksum, ref.cg)
		}
	}
	return nil
}

func npbHTMPoints(seed int64) []point {
	var pts []point
	for _, k := range npb.Kernels {
		pts = append(pts, npbPoint(k, vm.ModeGIL, 1, seed, false), npbPoint(k, vm.ModeHTM, 12, seed, true))
	}
	return pts
}

func npbGILPoints(seed int64) []point {
	var pts []point
	for _, k := range npb.Kernels {
		pts = append(pts, npbPoint(k, vm.ModeGIL, 12, seed, true))
	}
	return pts
}

// npbHTMSummary pairs each kernel's GIL@1 base with its HTM@12 run.
func npbHTMSummary(ps *passResult) outcome {
	var sims, papers []float64
	var lines []string
	for i := 0; i+1 < len(ps.points); i += 2 {
		base, run := ps.points[i], ps.points[i+1]
		k := npb.Kernels[i/2]
		if base.err != "" || run.err != "" || run.cycles == 0 {
			continue
		}
		s := float64(base.cycles) / float64(run.cycles)
		sims = append(sims, s)
		papers = append(papers, paperHTMDynamic[k])
		lines = append(lines, fmt.Sprintf("%s speedup=%.4f paper=%.1f", k, s, paperHTMDynamic[k]))
	}
	o := outcome{metrics: map[string]float64{}}
	if len(sims) == len(npb.Kernels) {
		o.metrics["sim_speedup"] = geomean(sims)
		o.metrics["paper_gap"] = paperGap(sims, papers)
	}
	o.lines = append(lines, fmt.Sprintf("sim_speedup=%.4f paper_gap=%.4f (paper: Fig. 5 HTM-dynamic at 12 threads)",
		o.metrics["sim_speedup"], o.metrics["paper_gap"]))
	return o
}

// ---- datastore ----

const (
	dsKeys    = 50_000
	dsThreads = 16
	dsShards  = 8
	dsPolicy  = "occ-adaptive"
	// dsStreams independent input streams run each mix. One stream's
	// simulated time rests on how many of its few hot-key storm windows
	// the seed draws; pooling streams narrows that spread across seeds.
	dsStreams = 2
)

// dsMixes are the keyspace workloads with their operations per thread. A
// and C put writes beside reads on one table; E's 256-768-row scans
// overflow HTM capacity; tpcc is the multi-row new-order mix.
var dsMixes = []struct {
	name string
	ops  int
}{{"A", 400}, {"C", 400}, {"E", 12}, {"tpcc", 24}}

func datastorePoints(seed int64) []point {
	var pts []point
	for j := 0; j < dsStreams; j++ {
		for _, mix := range dsMixes {
			cfg := keyspace.Config{Workload: mix.name, Keys: dsKeys, Threads: dsThreads, Ops: mix.ops,
				Seed: seed*dsStreams + int64(j)}
			pts = append(pts, datastorePoint(fmt.Sprintf("%s/%d", mix.name, j), cfg))
		}
	}
	return pts
}

// datastorePoint runs one keyspace mix under occ-adaptive with sharded
// GILs and validates its checksum and shard routing.
func datastorePoint(name string, cfg keyspace.Config) point {
	return point{name: name, measured: true, exec: func(p *pointResult) error {
		p.ops = cfg.Threads * cfg.Ops
		drv, err := keyspace.NewDriver(cfg)
		if err != nil {
			return err
		}
		lo, hi := checksumBounds(drv)
		opt := vm.DefaultOptions(htm.DatastoreNode(), vm.ModeHTM)
		opt.Policy, opt.Shards, opt.Seed = dsPolicy, dsShards, cfg.Seed
		var (
			m    *vm.VM
			iseq *compile.ISeq
			res  *vm.RunResult
		)
		if err := p.setupStep("vm.new", func() error { m = vm.New(opt); return nil }); err != nil {
			return err
		}
		if err := p.setupStep("keyspace.install", func() error { db.Install(m); drv.Install(m); return nil }); err != nil {
			return err
		}
		if err := p.setupStep("compile", func() (err error) {
			iseq, err = m.CompileSource(drv.Program(), "datastore-"+cfg.Workload)
			return err
		}); err != nil {
			return err
		}
		if err := p.runStep("run", func() (err error) { res, err = m.Run(iseq); return err }); err != nil {
			return err
		}
		p.cycles, p.stats, p.gil = res.Cycles, ownStats(res.Stats), gilStats(m)
		sum, err := strconv.ParseInt(strings.TrimSpace(res.Output), 10, 64)
		p.digest = []string{"checksum=" + strings.TrimSpace(res.Output)}
		switch {
		case err != nil:
			return fmt.Errorf("%s: checksum output %q", cfg.Workload, res.Output)
		case sum < lo || sum > hi:
			return fmt.Errorf("%s: checksum %d outside [%d, %d]", cfg.Workload, sum, lo, hi)
		case res.Stats.CrossShardLeaks != 0:
			return fmt.Errorf("%s: %d cross-shard leaks", cfg.Workload, res.Stats.CrossShardLeaks)
		}
		return nil
	}}
}

// checksumBounds returns the range the folded per-thread checksums of a
// datastore run must fall in. Every row starts with val 0. A point read
// adds the val it sees, which is 0 or a val some update of that key wrote;
// a scan adds its row count, K2-K1, since no row is ever deleted. Reads and
// scans whose result does not depend on the interleaving make lo == hi (C,
// E); the others bound each read by the least and greatest val it could
// see.
func checksumBounds(d *keyspace.Driver) (lo, hi int64) {
	c := d.Cfg
	type tk struct {
		table string
		key   int64
	}
	written := map[tk][]int64{}
	var reads []tk
	var fixed int64
	for tid := 0; tid < c.Threads; tid++ {
		for i := 0; i < c.Ops; i++ {
			op := d.At(tid, i)
			switch op.Kind {
			case keyspace.OpRead:
				reads = append(reads, tk{"user", op.K1})
			case keyspace.OpUpdate:
				written[tk{"user", op.K1}] = append(written[tk{"user", op.K1}], op.Val)
			case keyspace.OpScan:
				fixed += op.K2 - op.K1
			case keyspace.OpRMW:
				reads = append(reads, tk{"user", op.K1})
				written[tk{"user", op.K1}] = append(written[tk{"user", op.K1}], op.Val)
			case keyspace.OpNewOrder:
				// The customer table is never written: its reads add 0.
				for j, item := range op.Items {
					reads = append(reads, tk{"stock", item})
					written[tk{"stock", item}] = append(written[tk{"stock", item}], op.IVals[j])
				}
			}
		}
	}
	lo, hi = fixed, fixed
	for _, r := range reads {
		mn, mx := int64(0), int64(0)
		for _, v := range written[r] {
			mn, mx = min(mn, v), max(mx, v)
		}
		lo, hi = lo+mn, hi+mx
	}
	return lo, hi
}

func datastoreSummary(ps *passResult) outcome {
	var ops int
	var cycles int64
	for _, p := range ps.points {
		if p.err == "" {
			ops += p.ops
			cycles += p.cycles
		}
	}
	kops := ratio(float64(ops)*float64(vm.CyclesPerSecond), float64(cycles)) / 1000
	return outcome{
		metrics: map[string]float64{"sim_kops_per_vs": kops},
		lines:   []string{fmt.Sprintf("sim_kops_per_vs=%.4f (%d ops in %d cycles)", kops, ops, cycles)},
	}
}

// ---- serving ----

const (
	servingHorizon  = 40_000_000 // virtual cycles of arrivals per stream
	servingStreams  = 3          // independent streams per pool
	servingSessions = 1200
	servingWorkers  = 16
)

func httpGet(path string) string {
	return "GET " + path + " HTTP/1.1\r\nHost: sim.example\r\nUser-Agent: open/1.0\r\nAccept: text/html\r\nConnection: close\r\n\r\n"
}

// servingApps are the serving experiment's pools at their steady base
// rates, with its routes and SLOs.
var servingApps = []struct {
	name   string
	rate   float64
	routes []netsim.OpenRoute
}{
	{"webrick", 21, []netsim.OpenRoute{
		{Name: "index", Request: httpGet("/index.html"), SLOCycles: 2_000_000},
		{Name: "about", Request: httpGet("/about"), SLOCycles: 2_000_000},
		{Name: "missing", Request: httpGet("/missing"), SLOCycles: 1_500_000},
	}},
	{"rails", 38, []netsim.OpenRoute{
		{Name: "books", Request: httpGet("/books"), SLOCycles: 1_200_000},
		{Name: "book", Request: httpGet("/books/7"), SLOCycles: 1_200_000},
		{Name: "miss", Request: httpGet("/"), SLOCycles: 800_000},
	}},
}

// servingRun is what a serving point hands its summary.
type servingRun struct {
	samples   []int64 // latency in cycles from each completed request's arrival
	met       int     // completed within their route's SLO
	judged    int     // requests generated
	completed int
	connsPeak int
}

// outcomeCheck counts the outcomes a generator reports and checks that
// every generated request resolves exactly once.
type outcomeCheck struct {
	seen  map[[3]int64]bool
	dupes int
}

func (c *outcomeCheck) observe(session, route int, arrival, done int64, outcome string) {
	k := [3]int64{int64(session), int64(route), arrival}
	if c.seen[k] {
		c.dupes++
	}
	c.seen[k] = true
}

func (c *outcomeCheck) verify(g *netsim.OpenLoadGen) error {
	if c.dupes > 0 || len(c.seen) != g.Generated || g.Resolved() != g.Generated {
		return fmt.Errorf("%d generated, %d resolved, %d distinct outcomes, %d repeated",
			g.Generated, g.Resolved(), len(c.seen), c.dupes)
	}
	return nil
}

// servingPoints runs servingStreams independent arrival streams per pool,
// each on a fresh machine; pooling them keeps the pass's host time and its
// latency tail from resting on one stream's luck.
func servingPoints(seed int64) []point {
	var pts []point
	for j := 0; j < servingStreams; j++ {
		for i, app := range servingApps {
			genSeed := seed*int64(servingStreams*len(servingApps)) + int64(j*len(servingApps)+i)
			pts = append(pts, servingPoint(app.name, app.rate, app.routes, j, genSeed))
		}
	}
	return pts
}

func servingPoint(app string, rate float64, routes []netsim.OpenRoute, stream int, genSeed int64) point {
	return point{name: fmt.Sprintf("%s/%d", app, stream), measured: true, exec: func(p *pointResult) error {
		check := &outcomeCheck{seen: map[[3]int64]bool{}}
		gen := &netsim.OpenLoadGen{
			Seed:      genSeed,
			Arrivals:  netsim.ArrivalOpts{Kind: netsim.ArrivalPoisson, RatePerSec: rate, Horizon: servingHorizon},
			Routes:    routes,
			Sessions:  servingSessions,
			OnOutcome: check.observe,
		}
		// On a panic the point's operations are the requests generated
		// so far.
		defer func() { p.ops = max(gen.Generated, 1) }()
		var (
			cycles int64
			st     *vm.Stats
			err    error
		)
		if app == "webrick" {
			cycles, st, err = webrickOpen(p, gen)
		} else {
			err = p.runStep("railslite.run", func() error {
				r, err := railslite.Run(railslite.Config{Prof: htm.Server(128), Mode: vm.ModeHTM,
					Workers: servingWorkers, Open: gen})
				if err == nil {
					cycles, st = r.Cycles, ownStats(r.Stats)
				}
				return err
			})
		}
		if err != nil {
			return err
		}
		p.cycles, p.stats = cycles, st
		r := servingRun{judged: gen.Generated, completed: gen.Completed, connsPeak: gen.ConnsPeak}
		for ri, route := range routes {
			for _, s := range gen.Samples[ri] {
				r.samples = append(r.samples, s)
				if s <= route.SLOCycles {
					r.met++
				}
			}
		}
		p.serving = &r
		p.digest = []string{fmt.Sprintf("generated=%d completed=%d shed=%d gaveup=%d deadline=%d peak=%d samples=%s",
			gen.Generated, gen.Completed, gen.Shed, gen.GaveUp, gen.DeadlineExceeded, gen.ConnsPeak, hashSamples(gen.Samples))}
		if err := check.verify(gen); err != nil {
			return err
		}
		// Requests the pool did not complete count as failed operations.
		p.failed = gen.Generated - gen.Completed
		return nil
	}}
}

// webrickOpen serves the open-loop generator on the webrick worker pool,
// assembled from the same exported calls webrick.Run makes so that set-up
// and run are timed apart.
func webrickOpen(p *pointResult, gen *netsim.OpenLoadGen) (int64, *vm.Stats, error) {
	opt := vm.DefaultOptions(htm.Server(128), vm.ModeHTM)
	var (
		m    *vm.VM
		net  *netsim.Network
		iseq *compile.ISeq
		res  *vm.RunResult
	)
	if err := p.setupStep("vm.new", func() error { m = vm.New(opt); return nil }); err != nil {
		return 0, nil, err
	}
	if err := p.setupStep("netsim.install", func() error {
		net = netsim.NewNetwork(m.Engine)
		net.Faults = m.Faults
		netsim.Install(m, net)
		rbregexp.Install(m)
		rbregexp.InstallStringMethods(m)
		return nil
	}); err != nil {
		return 0, nil, err
	}
	if err := p.setupStep("compile", func() (err error) {
		iseq, err = m.CompileSource(webrick.PoolSource(servingWorkers), "webrick")
		return err
	}); err != nil {
		return 0, nil, err
	}
	gen.Net, gen.Eng, gen.Port, gen.OnDone = net, m.Engine, 80, m.Engine.Stop
	if err := p.runStep("run", func() (err error) {
		gen.Start()
		res, err = m.Run(iseq)
		return err
	}); err != nil {
		return 0, nil, err
	}
	p.gil = gilStats(m)
	return res.Cycles, ownStats(res.Stats), nil
}

func hashSamples(samples [][]int64) string {
	h := sha256.New()
	var b [8]byte
	for _, route := range samples {
		for _, s := range route {
			binary.LittleEndian.PutUint64(b[:], uint64(s))
			h.Write(b[:])
		}
		h.Write([]byte{0xff})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cyclesPerMs converts virtual cycles to virtual milliseconds.
const cyclesPerMs = float64(vm.CyclesPerSecond) / 1000

func servingSummary(ps *passResult) outcome {
	var all []int64
	var met, judged, completed int
	var cycles int64
	for _, p := range ps.points {
		if r := p.serving; r != nil {
			all = append(all, r.samples...)
			met += r.met
			judged += r.judged
			completed += r.completed
			cycles += p.cycles
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	p50, _ := nearestRank(all, 50)
	tp, tv, ok := tail(all)
	o := outcome{metrics: map[string]float64{
		"sim_p50_ms":      float64(p50) / cyclesPerMs,
		"slo_attainment":  ratio(float64(met), float64(judged)),
		"sim_kops_per_vs": ratio(float64(completed)*float64(vm.CyclesPerSecond), float64(cycles)) / 1000,
	}}
	// sim_p99_ms is the p99 only when ten samples lie beyond it; otherwise
	// the digest names the highest percentile that has them.
	if ok && tp >= 99 {
		v, _ := nearestRank(all, 99)
		o.metrics["sim_p99_ms"] = float64(v) / cyclesPerMs
	}
	o.lines = []string{fmt.Sprintf("n=%d p50_ms=%.4f p99_ms=%.4f tail=p%g:%.4fms slo_attainment=%.4f",
		len(all), o.metrics["sim_p50_ms"], o.metrics["sim_p99_ms"], tp, float64(tv)/cyclesPerMs, o.metrics["slo_attainment"])}
	return o
}

// ownStats and gilStats copy a run's counters out of its machine: the
// pointers a run returns point into the VM, so keeping them would keep every
// point's machine, simulated memory included, alive for the whole run.
func ownStats(st *vm.Stats) *vm.Stats {
	s := *st
	return &s
}

func gilStats(m *vm.VM) *gil.Stats {
	s := m.GIL.Stats
	return &s
}
