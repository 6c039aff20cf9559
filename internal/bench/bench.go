// Package bench regenerates every table and figure of the paper's
// evaluation (Section 5) on the simulated machines. Each experiment
// writes a plain-text table whose rows correspond to the points of the
// original plot; EXPERIMENTS.md records the comparison against the paper.
//
// Experiments run inside a Session, which accumulates one machine-readable
// Report per executed configuration point (WriteReports) and, when
// TraceSummary is on, attaches a trace aggregator to every VM run so the
// per-point digests can attribute aborts to yield points and regions and
// show the dynamic length-adjustment timeline (WriteTraceSummaries).
// Session.Run is the one entry point: it runs an experiment of the registry
// by name (Experiments lists them).
//
// Every configuration point is an independent, fully deterministic
// single-threaded simulation, so each experiment first enumerates its points
// into a plan and then executes them on a pool of Session.Parallel workers
// (see plan.go); results are merged in point order, keeping the output
// byte-identical to a sequential run.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"htmgil/internal/htm"
	"htmgil/internal/npb"
	"htmgil/internal/simmem"
	"htmgil/internal/vm"
	"htmgil/internal/webrick"
)

// Config names one interpreter configuration of Figure 5/7.
type Config struct {
	Name string
	Mode vm.Mode
	// Policy selects a contention-management policy by registry name
	// (internal/policy); empty selects paper-dynamic.
	Policy string
}

// Configs returns the paper's five configurations.
func Configs() []Config {
	return []Config{
		{Name: "GIL", Mode: vm.ModeGIL},
		{Name: "HTM-1", Mode: vm.ModeHTM, Policy: "fixed-1"},
		{Name: "HTM-16", Mode: vm.ModeHTM, Policy: "fixed-16"},
		{Name: "HTM-256", Mode: vm.ModeHTM, Policy: "fixed-256"},
		{Name: "HTM-dynamic", Mode: vm.ModeHTM},
	}
}

// options returns the machine's default VM options under the configuration.
func (c Config) options(prof *htm.Profile) vm.Options {
	opt := vm.DefaultOptions(prof, c.Mode)
	opt.Policy = c.Policy
	return opt
}

// names returns the configurations' names, the columns of a grid.
func names(cfgs []Config) []string {
	out := make([]string, len(cfgs))
	for i, c := range cfgs {
		out[i] = c.Name
	}
	return out
}

// kernelNames returns the kernels' names, the columns of a grid.
func kernelNames(bs []npb.Bench) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = string(b)
	}
	return out
}

// shares renders each key's share of the counts' total, sorted by key, as
// " key=N%" fields; nothing when the total is zero. Both abort-cause tables
// (and the §5.6 conflict regions) render through it.
func shares(w io.Writer, counts map[string]uint64) {
	keys := make([]string, 0, len(counts))
	var total uint64
	for k, n := range counts {
		keys = append(keys, k)
		total += n
	}
	if total == 0 {
		return
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%.0f%%", k, 100*float64(counts[k])/float64(total))
	}
}

// speedup renders a cycle ratio against a baseline point: how many times
// faster than base r ran the same work.
func speedup(format string, base, r *point) string {
	return fmt.Sprintf(format, float64(base.Cycles)/float64(r.Cycles))
}

// threadsFor returns the paper's thread counts for a machine.
func threadsFor(p *htm.Profile, quick bool) []int {
	if p.SMTWays == 1 {
		if quick {
			return []int{1, 4, 12}
		}
		return []int{1, 2, 4, 8, 12}
	}
	if quick {
		return []int{1, 4, 8}
	}
	return []int{1, 2, 4, 6, 8}
}

func classFor(quick bool) npb.Class {
	if quick {
		return npb.ClassS
	}
	return npb.ClassW
}

// Session runs experiments and accumulates their results. The zero value
// plus a writer is usable; NewSession fills in the defaults.
type Session struct {
	W     io.Writer
	Quick bool
	// TraceSummary attaches an event aggregator to every VM run so that
	// Reports carry abort-PC attribution and length-adjustment timelines
	// (and WriteTraceSummaries has something to print).
	TraceSummary bool
	// Parallel is the number of workers executing configuration points;
	// 0 selects runtime.GOMAXPROCS(0) and 1 forces sequential execution.
	// Whatever the value, tables and Reports come out in the same order
	// with the same bytes.
	Parallel int
	Reports  []Report
}

// NewSession returns a Session writing plain-text tables to w.
func NewSession(w io.Writer, quick bool) *Session {
	return &Session{W: w, Quick: quick}
}

// experiments is the registry Run dispatches on, in the order "all" runs
// them.
var experiments = []struct {
	name  string
	build func(*Session, *plan)
}{
	{"micro", (*Session).buildMicro}, {"fig5", (*Session).buildFig5}, {"fig6a", (*Session).buildFig6a},
	{"fig6b", (*Session).buildFig6b}, {"fig7", (*Session).buildFig7}, {"fig8", (*Session).buildFig8},
	{"fig9", (*Session).buildFig9}, {"aborts", (*Session).buildAborts}, {"overhead", (*Session).buildOverhead},
	{"ablation", (*Session).buildAblation}, {"policy", (*Session).buildPolicy}, {"hybrid", (*Session).buildHybrid},
	{"chaos", (*Session).buildChaos}, {"serving", (*Session).buildServing}, {"resilience", (*Session).buildResilience},
	{"datastore", (*Session).buildDatastore}, {"explore", (*Session).buildExplore},
}

// Experiments returns every experiment name accepted by Run, "all" last.
func Experiments() []string {
	out := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		out = append(out, e.name)
	}
	return append(out, "all")
}

// Run runs one experiment by name. "all" runs every experiment in one plan,
// so the worker pool spans experiment boundaries and the tail of one
// experiment overlaps the head of the next.
func (s *Session) Run(name string) error {
	p, found := s.newPlan(), false
	for _, e := range experiments {
		if name == "all" || e.name == name {
			e.build(s, p)
			found = true
		}
	}
	if !found {
		return fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(Experiments(), " "))
	}
	return p.flush()
}

// buildFig5 enumerates Figure 5: NPB throughput against threads for the five
// configurations on both machines, normalized to 1-thread GIL.
func (s *Session) buildFig5(p *plan) {
	quick := s.Quick
	cfgs := Configs()
	for _, prof := range []*htm.Profile{htm.ZEC12(), htm.XeonE3()} {
		for _, bench := range npb.Kernels {
			p.printf("\n# Figure 5 — %s on %s (throughput, 1 = 1-thread GIL)\n", bench, prof.Name)
			base := p.kernel(fmt.Sprintf("fig5 baseline %s", bench),
				"fig5", cfgs[0].Name, bench, cfgs[0].options(prof), 1, classFor(quick), false)
			p.grid("threads", 12, threadsFor(prof, quick), names(cfgs), 14,
				func(th, j int) *point {
					return p.kernel(fmt.Sprintf("fig5 %s/%s/%d", bench, cfgs[j].Name, th),
						"fig5", cfgs[j].Name, bench, cfgs[j].options(prof), th, classFor(quick), false)
				},
				func(_ int, r *point) string { return speedup("%14.2f", base, r) })
		}
	}
}

// buildFig6a enumerates Figure 6(a): the TSX learning behaviour. A synthetic
// transaction writes a shrinking working set; the success ratio recovers
// only gradually after the set drops below capacity. It drives the HTM
// layer directly (no VM run), so it contributes no Reports and forms a
// single plan point.
func (s *Session) buildFig6a(p *plan) {
	quick := s.Quick
	p.raw("fig6a", func(w io.Writer) error {
		prof := htm.XeonE3()
		prof.InterruptMeanCycles = 0
		mem := simmem.NewMemory(simmem.Config{LineBytes: prof.LineBytes}, 1)
		base := mem.Reserve("data", 1<<21)
		ctx := htm.NewContext(prof, mem, 0, 42)
		iters := 10000
		if quick {
			iters = 2000
		}
		fmt.Fprintf(w, "\n# Figure 6a — write-set shrink on %s (success ratio per %d-iteration window)\n", prof.Name, 100)
		fmt.Fprintf(w, "%-12s%-12s%-12s\n", "iteration", "sizeKB", "success%")
		window, succ := 0, 0
		iter := 0
		for _, sizeKB := range []int{24, 20, 16, 12, 8, 4} {
			lines := sizeKB << 10 / prof.LineBytes
			for i := 0; i < iters; i++ {
				ctx.Begin(0)
				for l := 0; l < lines && !ctx.Tx.Doomed(); l++ {
					ctx.Tx.Store(base+simmem.Addr(l*prof.LineBytes), simmem.Word{Bits: 1})
				}
				if _, ok := ctx.End(0); ok {
					succ++
				} else {
					ctx.Abort()
				}
				window++
				iter++
				if window == 100 {
					fmt.Fprintf(w, "%-12d%-12d%-12d\n", iter, sizeKB, succ)
					window, succ = 0, 0
				}
			}
		}
		return nil
	})
}

// buildFig6b enumerates Figure 6(b): BT with the larger class on Xeon, where
// the longer run lets HTM-dynamic reach and beat the fixed lengths.
func (s *Session) buildFig6b(p *plan) {
	quick := s.Quick
	prof := htm.XeonE3()
	class := npb.ClassW
	if quick {
		class = npb.ClassS
	}
	cfgs := Configs()
	p.printf("\n# Figure 6b — BT class W on %s (throughput, 1 = 1-thread GIL)\n", prof.Name)
	base := p.kernel("fig6b baseline", "fig6b", cfgs[0].Name, npb.BT, cfgs[0].options(prof), 1, class, false)
	p.grid("threads", 12, threadsFor(prof, quick), names(cfgs), 14,
		func(th, j int) *point {
			return p.kernel(fmt.Sprintf("fig6b %s/%d", cfgs[j].Name, th),
				"fig6b", cfgs[j].Name, npb.BT, cfgs[j].options(prof), th, class, false)
		},
		func(_ int, r *point) string { return speedup("%14.2f", base, r) })
}

// buildFig7 enumerates Figure 7: WEBrick on both machines and Rails on Xeon,
// throughput normalized to 1-client GIL, plus HTM-dynamic abort ratios.
func (s *Session) buildFig7(p *plan) {
	quick := s.Quick
	// The dynamic adjustment needs enough requests to adapt the handler
	// sites' transaction lengths (the paper served 30,000 per point).
	requests := 3000
	clientsList := []int{1, 2, 3, 4, 5, 6}
	if quick {
		requests = 800
		clientsList = []int{1, 2, 4, 6}
	}
	type app struct {
		name string
		prof *htm.Profile
		zos  bool
	}
	apps := []app{
		{"webrick", htm.ZEC12(), true},
		{"webrick", htm.XeonE3(), false},
		{"rails", htm.XeonE3(), false},
	}
	cfgs := Configs()
	run := func(label string, a app, cfg Config, clients int) *point {
		return p.server(label, "fig7", a.name, cfg.Name, webrick.Config{Prof: a.prof, Mode: cfg.Mode,
			Policy: cfg.Policy, Clients: clients, Requests: requests, ZOSMalloc: a.zos}, false)
	}
	for _, a := range apps {
		p.printf("\n# Figure 7 — %s on %s (throughput, 1 = 1-client GIL; rightmost: HTM-dynamic abort%%)\n", a.name, a.prof.Name)
		base := run(fmt.Sprintf("fig7 %s baseline", a.name), a, cfgs[0], 1)
		// The rightmost column repeats the row's last point: HTM-dynamic.
		var dyn *point
		p.grid("clients", 10, clientsList, append(names(cfgs), "abort%"), 14,
			func(cl, j int) *point {
				if j == len(cfgs) {
					return dyn
				}
				r := run(fmt.Sprintf("fig7 %s/%s/%d", a.name, cfgs[j].Name, cl), a, cfgs[j], cl)
				dyn = r
				return r
			},
			func(j int, r *point) string {
				if j == len(cfgs) {
					return fmt.Sprintf("%14.1f", r.AbortRatio*100)
				}
				return fmt.Sprintf("%14.2f", r.Throughput/base.Throughput)
			})
	}
}

// buildFig8 enumerates Figure 8: HTM-dynamic abort ratios of the NPB against
// threads on both machines, and the cycle breakdown at 12 threads on zEC12.
func (s *Session) buildFig8(p *plan) {
	quick := s.Quick
	class := classFor(quick)
	dyn := Configs()[4]
	for _, prof := range []*htm.Profile{htm.ZEC12(), htm.XeonE3()} {
		p.printf("\n# Figure 8 — HTM-dynamic abort ratios (%%) on %s\n", prof.Name)
		p.grid("threads", 10, threadsFor(prof, quick), kernelNames(npb.Kernels), 8,
			func(th, j int) *point {
				b := npb.Kernels[j]
				return p.kernel(fmt.Sprintf("fig8 %s/%d", b, th),
					"fig8", dyn.Name, b, dyn.options(prof), th, class, false)
			},
			func(_ int, r *point) string { return fmt.Sprintf("%8.1f", r.AbortRatio*100) })
	}
	// Cycle breakdown, 12 threads on zEC12.
	p.printf("\n# Figure 8 — cycle breakdown, HTM-dynamic, 12 threads, zEC12 (%%)\n")
	p.printf("%-8s%14s%14s%14s%14s%14s\n", "bench",
		vm.CatBeginEnd, vm.CatTxSuccess, vm.CatTxAborted, vm.CatGILHeld, vm.CatGILWait)
	for _, b := range npb.Kernels {
		r := p.kernel(fmt.Sprintf("fig8 breakdown %s", b),
			"fig8", dyn.Name, b, dyn.options(htm.ZEC12()), 12, class, false)
		p.cell(func(w io.Writer) error {
			st := r.st
			total := float64(st.Cycles[vm.CatBeginEnd] + st.Cycles[vm.CatTxSuccess] +
				st.Cycles[vm.CatTxAborted] + st.Cycles[vm.CatGILHeld] + st.Cycles[vm.CatGILWait])
			if total == 0 {
				total = 1
			}
			fmt.Fprintf(w, "%-8s", b)
			for _, cat := range []vm.CycleCat{vm.CatBeginEnd, vm.CatTxSuccess, vm.CatTxAborted, vm.CatGILHeld, vm.CatGILWait} {
				fmt.Fprintf(w, "%14.1f", 100*float64(st.Cycles[cat])/total)
			}
			_, err := fmt.Fprintln(w)
			return err
		})
	}
}

// buildFig9 enumerates Figure 9: scalability of HTM-dynamic (zEC12), the
// JRuby-style fine-grained-locking runtime, and the Ideal runtime (the
// Java NPB stand-in), each normalized to its own 1-thread run.
func (s *Session) buildFig9(p *plan) {
	quick := s.Quick
	class := classFor(quick)
	runtimes := []struct {
		name string
		prof *htm.Profile
		mode vm.Mode
	}{
		{"HTM-dynamic/zEC12", htm.ZEC12(), vm.ModeHTM},
		{"FGL (JRuby-like)", htm.ZEC12(), vm.ModeFGL},
		{"Ideal (Java-like)", htm.ZEC12(), vm.ModeIdeal},
	}
	for _, rt := range runtimes {
		p.printf("\n# Figure 9 — scalability of %s (1 = own 1-thread)\n", rt.name)
		opt := vm.DefaultOptions(rt.prof, rt.mode)
		bases := make([]*point, len(npb.Kernels))
		for j, b := range npb.Kernels {
			bases[j] = p.kernel(fmt.Sprintf("fig9 %s/%s/1", rt.name, b),
				"fig9", rt.name, b, opt, 1, class, false)
		}
		p.grid("threads", 10, threadsFor(rt.prof, quick), kernelNames(npb.Kernels), 8,
			func(th, j int) *point {
				b := npb.Kernels[j]
				return p.kernel(fmt.Sprintf("fig9 %s/%s/%d", rt.name, b, th),
					"fig9", rt.name, b, opt, th, class, false)
			},
			func(j int, r *point) string { return speedup("%8.2f", bases[j], r) })
	}
}

// buildMicro enumerates the Section 5.3 micro-benchmark result: While and
// Iterator speedups of the best HTM configuration over the GIL at 12
// threads on zEC12 (the paper reports 11- and 10-fold).
func (s *Session) buildMicro(p *plan) {
	quick := s.Quick
	prof := htm.ZEC12()
	class := classFor(quick)
	p.printf("\n# Section 5.3 — micro-benchmark throughput over 1-thread GIL on %s\n", prof.Name)
	p.printf("# (Figure 4 workloads run per thread, so throughput = threads * cycle ratio)\n")
	p.printf("%-10s%10s%16s%16s\n", "bench", "threads", "GIL", "HTM-dynamic")
	gil, dyn := Configs()[0], Configs()[4]
	for _, b := range npb.Micro {
		base := p.kernel(fmt.Sprintf("micro baseline %s", b),
			"micro", gil.Name, b, gil.options(prof), 1, class, false)
		for _, th := range []int{1, 12} {
			g := p.kernel(fmt.Sprintf("micro %s/GIL/%d", b, th),
				"micro", gil.Name, b, gil.options(prof), th, class, false)
			h := p.kernel(fmt.Sprintf("micro %s/HTM-dynamic/%d", b, th),
				"micro", dyn.Name, b, dyn.options(prof), th, class, false)
			p.cell(func(w io.Writer) error {
				work := float64(th)
				_, err := fmt.Fprintf(w, "%-10s%10d%16.2f%16.2f\n", b, th,
					work*float64(base.Cycles)/float64(g.Cycles),
					work*float64(base.Cycles)/float64(h.Cycles))
				return err
			})
		}
	}
}

// buildAborts enumerates the Section 5.6 analyses: abort causes and the
// memory regions responsible for conflict aborts.
func (s *Session) buildAborts(p *plan) {
	quick := s.Quick
	class := classFor(quick)
	dyn := Configs()[4]
	p.printf("\n# Section 5.6 — abort causes and conflict regions, HTM-dynamic, 12 threads, zEC12\n")
	for _, b := range npb.Kernels {
		r := p.kernel(fmt.Sprintf("aborts %s", b),
			"aborts", dyn.Name, b, dyn.options(htm.ZEC12()), 12, class, false)
		p.cell(func(w io.Writer) error {
			fmt.Fprintf(w, "%-6s causes:", b)
			shares(w, r.AbortCauses)
			fmt.Fprintf(w, " | conflict regions:")
			shares(w, r.ConflictRegions)
			_, err := fmt.Fprintln(w)
			return err
		})
	}
}

// buildOverhead enumerates the Section 5.6 single-thread overhead: the
// paper reports HTM-dynamic 18–35% slower than the GIL with one thread.
func (s *Session) buildOverhead(p *plan) {
	quick := s.Quick
	class := classFor(quick)
	p.printf("\n# Section 5.6 — single-thread overhead of HTM-dynamic vs GIL (zEC12)\n")
	p.printf("%-8s%14s\n", "bench", "overhead%")
	gil, dyn := Configs()[0], Configs()[4]
	for _, b := range npb.Kernels {
		g := p.kernel(fmt.Sprintf("overhead %s/GIL", b),
			"overhead", gil.Name, b, gil.options(htm.ZEC12()), 1, class, false)
		h := p.kernel(fmt.Sprintf("overhead %s/HTM-dynamic", b),
			"overhead", dyn.Name, b, dyn.options(htm.ZEC12()), 1, class, false)
		p.cell(func(w io.Writer) error {
			_, err := fmt.Fprintf(w, "%-8s%14.1f\n", b,
				100*(float64(h.Cycles)/float64(g.Cycles)-1))
			return err
		})
	}
}

// buildAblation enumerates the Section 4.2/4.4 findings: removing the new
// yield points or the conflict removals destroys the HTM speedup.
func (s *Session) buildAblation(p *plan) {
	quick := s.Quick
	class := classFor(quick)
	prof := htm.ZEC12()
	threads := 8
	bench := npb.FT
	baseOpt := vm.DefaultOptions(prof, vm.ModeGIL)
	baseRun := p.kernel("ablation baseline", "ablation", "GIL", bench, baseOpt, threads, class, false)
	p.printf("\n# Ablations — %s, %d threads, zEC12 (speedup over GIL at same threads)\n", bench, threads)
	p.printf("%-38s%14s\n", "configuration", "speedup")
	type variant struct {
		name string
		mut  func(*vm.Options)
	}
	variants := []variant{
		{"HTM-dynamic (all optimizations)", func(o *vm.Options) {}},
		{"- extended yield points (§4.2)", func(o *vm.Options) { o.ExtendedYieldPoints = false }},
		{"- thread-local free lists (§4.4)", func(o *vm.Options) { o.ThreadLocalFreeLists = false }},
		{"- globals in TLS (§4.4)", func(o *vm.Options) { o.GlobalVarsToTLS = false }},
		{"- fill-once inline caches (§4.4)", func(o *vm.Options) { o.FillOnceInlineCaches = false }},
		{"- padded thread structs (§4.4)", func(o *vm.Options) { o.PaddedThreadStructs = false }},
		{"- all conflict removals", func(o *vm.Options) {
			o.ThreadLocalFreeLists = false
			o.GlobalVarsToTLS = false
			o.FillOnceInlineCaches = false
			o.PaddedThreadStructs = false
		}},
	}
	for _, va := range variants {
		opt := vm.DefaultOptions(prof, vm.ModeHTM)
		va.mut(&opt)
		r := p.kernel(fmt.Sprintf("ablation %q", va.name),
			"ablation", va.name, bench, opt, threads, class, false)
		p.cell(func(w io.Writer) error {
			_, err := fmt.Fprintf(w, "%-38s%s\n", va.name, speedup("%14.2f", baseRun, r))
			return err
		})
	}
}
