package bench

import (
	"fmt"
	"io"

	"htmgil/internal/htm"
	"htmgil/internal/vm"
	"htmgil/internal/webrick"
)

// The hybrid experiment evaluates the three-tier elision pipeline: where
// does the software-transaction (OCC) tier between HTM and the GIL pay
// off? It sweeps five runtimes over the NPB kernels and WEBrick:
//
//   GIL            every critical section under the lock (the baseline)
//   paper-dynamic  the paper's two tiers: HTM with a GIL fallback
//   occ-adaptive   three tiers: per-site routing HTM -> OCC -> GIL
//   occ-adpt-sbx   occ-adaptive with sandboxed HTM: hardware transactions
//                  skip the OCC sequence-word subscription and rely on
//                  per-line publication conflicts alone
//   occ-first      the software tier only: OCC with a GIL fallback
//
// Every point attaches a trace aggregator (like the policy experiment),
// and the per-tier attribution tables break commits and aborts down by
// tier — hardware, software, and lock — including OCC validation
// failures. The headline question each summary line answers: at the
// highest thread count, does replacing the GIL fallback with OCC beat
// running the contended sections under the lock?

// hybridConfig pairs a swept runtime with its machine-profile tweak.
type hybridConfig struct {
	Config
	sandbox bool // htm.Profile.OCCSandbox: skip the seq-word subscription
}

func hybridConfigs() []hybridConfig {
	return []hybridConfig{
		{Config{Name: "GIL", Mode: vm.ModeGIL}, false},
		{Config{Name: "paper-dynamic", Mode: vm.ModeHTM, Policy: "paper-dynamic"}, false},
		{Config{Name: "occ-adaptive", Mode: vm.ModeHTM, Policy: "occ-adaptive"}, false},
		{Config{Name: "occ-adpt-sbx", Mode: vm.ModeHTM, Policy: "occ-adaptive"}, true},
		{Config{Name: "occ-first", Mode: vm.ModeHTM, Policy: "occ-first"}, false},
	}
}

// hybridProfile builds the per-config machine profile.
func hybridProfile(base func() *htm.Profile, sandbox bool) *htm.Profile {
	p := base()
	p.OCCSandbox = sandbox
	return p
}

// hybridAttribution renders one per-tier attribution line: hardware
// begin/commit/abort, software begin/commit/abort plus commit-time
// validation failures, and sections that ended up under the lock.
func hybridAttribution(w io.Writer, name string, st *vm.Stats) error {
	var hb, hc, ha uint64
	if st.HTM != nil {
		hb, hc, ha = st.HTM.Begins, st.HTM.Commits, st.HTM.Aborts
	}
	var ob, oc, oa, ovf uint64
	if st.OCC != nil {
		ob, oc, oa, ovf = st.OCC.Begins, st.OCC.Commits, st.OCC.Aborts, st.OCC.ValidationFailures
	}
	_, err := fmt.Fprintf(w, "%-16s%10d%10d%10d%10d%10d%10d%10d%10d\n",
		name, hb, hc, ha, ob, oc, oa, ovf, st.GILFallbacks)
	return err
}

func hybridAttributionHeader(p *plan) {
	p.printf("%-16s%10s%10s%10s%10s%10s%10s%10s%10s\n", "policy",
		"htmBegin", "htmCommit", "htmAbort", "occBegin", "occCommit", "occAbort", "valFail", "gilFall")
}

// buildHybrid enumerates the hybrid-TM experiment: throughput tables
// normalized to 1-thread (1-client) GIL, a per-tier attribution table at
// the highest contention point, and a summary line comparing the
// OCC-using runtimes against the all-GIL baseline at that point.
func (s *Session) buildHybrid(p *plan) {
	quick := s.Quick
	class := classFor(quick)
	cfgs := hybridConfigs()
	cols := make([]string, len(cfgs))
	for j, hc := range cfgs {
		cols[j] = hc.Name
	}
	// attributions renders the per-tier table of the top row of a grid and
	// the summary line; ratio is how many times better r did than the GIL.
	attributions := func(unit string, maxRow int, top []*point, ratio func(gil, r *point) float64) {
		hybridAttributionHeader(p)
		at := map[string]*point{}
		for j, hc := range cfgs {
			r := top[j]
			at[hc.Name] = r
			p.cell(func(w io.Writer) error { return hybridAttribution(w, hc.Name, r.st) })
		}
		p.cell(func(w io.Writer) error {
			gil := at["GIL"]
			_, err := fmt.Fprintf(w, "# vs all-GIL at %d %s: occ-first %.2fx, occ-adaptive %.2fx, paper-dynamic %.2fx\n",
				maxRow, unit, ratio(gil, at["occ-first"]), ratio(gil, at["occ-adaptive"]), ratio(gil, at["paper-dynamic"]))
			return err
		})
	}
	for _, base := range []func() *htm.Profile{htm.ZEC12, htm.XeonE3} {
		prof := base()
		ths := threadsFor(prof, quick)
		maxTh := ths[len(ths)-1]
		for _, bench := range policyKernels(quick) {
			p.printf("\n# Hybrid TM — %s on %s (throughput, 1 = 1-thread GIL)\n", bench, prof.Name)
			baseRun := p.kernel(fmt.Sprintf("hybrid baseline %s/%s", prof.Name, bench),
				"hybrid", cfgs[0].Name, bench, cfgs[0].options(prof), 1, class, false)
			m := p.grid("threads", 10, ths, cols, 16,
				func(th, j int) *point {
					hc := cfgs[j]
					return p.kernel(fmt.Sprintf("hybrid %s/%s/%s/%d", prof.Name, bench, hc.Name, th),
						"hybrid", hc.Name, bench, hc.options(hybridProfile(base, hc.sandbox)), th, class, true)
				},
				func(_ int, r *point) string { return speedup("%16.2f", baseRun, r) })
			p.printf("\n# Hybrid per-tier attribution — %s on %s, %d threads\n", bench, prof.Name, maxTh)
			attributions("threads", maxTh, m[len(m)-1], func(gil, r *point) float64 {
				return float64(gil.Cycles) / float64(r.Cycles)
			})
		}
	}
	// WEBrick on zEC12 (z/OS malloc shadowing, like the policy sweep).
	requests := 3000
	clientsList := []int{1, 2, 4, 6}
	if quick {
		requests = 800
		clientsList = []int{1, 4}
	}
	maxCl := clientsList[len(clientsList)-1]
	wc := func(hc hybridConfig, clients int) webrick.Config {
		return webrick.Config{Prof: hybridProfile(htm.ZEC12, hc.sandbox), Mode: hc.Mode, Policy: hc.Policy,
			Clients: clients, Requests: requests, ZOSMalloc: true}
	}
	p.printf("\n# Hybrid TM — webrick on zEC12 (throughput, 1 = 1-client GIL)\n")
	baseSrv := p.server("hybrid webrick baseline", "hybrid", "webrick", cfgs[0].Name, wc(cfgs[0], 1), false)
	m := p.grid("clients", 10, clientsList, cols, 16,
		func(cl, j int) *point {
			return p.server(fmt.Sprintf("hybrid webrick/%s/%d", cfgs[j].Name, cl),
				"hybrid", "webrick", cfgs[j].Name, wc(cfgs[j], cl), true)
		},
		func(_ int, r *point) string { return fmt.Sprintf("%16.2f", r.Throughput/baseSrv.Throughput) })
	p.printf("\n# Hybrid per-tier attribution — webrick on zEC12, %d clients\n", maxCl)
	attributions("clients", maxCl, m[len(m)-1], func(gil, r *point) float64 {
		return r.Throughput / gil.Throughput
	})
}
