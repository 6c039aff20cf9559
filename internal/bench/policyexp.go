package bench

import (
	"fmt"
	"io"
	"sort"

	"htmgil/internal/htm"
	"htmgil/internal/npb"
	"htmgil/internal/policy"
	"htmgil/internal/trace"
	"htmgil/internal/vm"
	"htmgil/internal/webrick"
)

// The policy experiment sweeps every registered contention-management
// policy (internal/policy) over the NPB kernels and the WEBrick server,
// with the same normalization as Figures 5 and 7 so the paper-dynamic
// column reproduces the HTM-dynamic numbers bit for bit. Unlike the other
// experiments, every point always attaches a trace aggregator: the
// attribution tables break the abort causes and GIL-fallback reasons down
// per policy, which is the whole point of comparing them.

// PolicyConfigs returns one ModeHTM configuration per registered
// contention-management policy, in registry order.
func PolicyConfigs() []Config {
	names := policy.Names()
	out := make([]Config, 0, len(names))
	for _, n := range names {
		out = append(out, Config{Name: n, Mode: vm.ModeHTM, Policy: n})
	}
	return out
}

// attribution renders one per-policy attribution line: abort ratio,
// fallback and adjustment counts, then the sorted abort causes and the
// sorted GIL-fallback reasons observed by the trace aggregator.
func attribution(w io.Writer, name string, st *vm.Stats, agg *trace.Aggregator) error {
	fallbacks, adjusts := uint64(0), uint64(0)
	if st != nil {
		fallbacks, adjusts = st.GILFallbacks, st.Adjustments
	}
	fmt.Fprintf(w, "%-18s%9.1f%%%12d%12d  ", name, st.AbortRatio()*100, fallbacks, adjusts)
	var parts []string
	for c, n := range st.AbortCauses {
		parts = append(parts, fmt.Sprintf("%s=%d", c, n))
	}
	sort.Strings(parts)
	for i, s := range parts {
		if i > 0 {
			fmt.Fprint(w, " ")
		}
		fmt.Fprint(w, s)
	}
	if len(parts) == 0 {
		fmt.Fprint(w, "-")
	}
	fmt.Fprint(w, " | ")
	parts = parts[:0]
	for reason, n := range agg.FallbackReasons {
		parts = append(parts, fmt.Sprintf("%s=%d", reason, n))
	}
	sort.Strings(parts)
	for i, s := range parts {
		if i > 0 {
			fmt.Fprint(w, " ")
		}
		fmt.Fprint(w, s)
	}
	if len(parts) == 0 {
		fmt.Fprint(w, "-")
	}
	_, err := fmt.Fprintln(w)
	return err
}

// policyKernels returns the NPB kernels the policy experiment sweeps.
func policyKernels(quick bool) []npb.Bench {
	if quick {
		return []npb.Bench{npb.CG, npb.FT, npb.SP}
	}
	return npb.Kernels
}

// buildPolicy enumerates the policy-comparison experiment: every registered
// policy against threads on the NPB kernels (normalized to 1-thread GIL,
// like Figure 5 — the paper-dynamic column is bit-identical to fig5's
// HTM-dynamic column) and against clients on WEBrick (normalized to
// 1-client GIL, like Figure 7), each table followed by a per-policy abort
// attribution at the highest contention point.
func (s *Session) buildPolicy(p *plan) {
	quick := s.Quick
	class := classFor(quick)
	gil, pols := Configs()[0], PolicyConfigs()
	attributions := func(top []*point) {
		p.printf("%-18s%10s%12s%12s  %s\n", "policy", "abort%", "fallbacks", "adjusts", "causes | fallback reasons")
		for j, pc := range pols {
			r := top[j]
			p.cell(func(w io.Writer) error { return attribution(w, pc.Name, r.st, r.agg) })
		}
	}
	for _, prof := range []*htm.Profile{htm.ZEC12(), htm.XeonE3()} {
		ths := threadsFor(prof, quick)
		maxTh := ths[len(ths)-1]
		for _, bench := range policyKernels(quick) {
			p.printf("\n# Policy comparison — %s on %s (throughput, 1 = 1-thread GIL)\n", bench, prof.Name)
			base := p.kernel(fmt.Sprintf("policy baseline %s", bench),
				"policy", gil.Name, bench, gil.options(prof), 1, class, false)
			m := p.grid("threads", 10, ths, names(pols), 18,
				func(th, j int) *point {
					return p.kernel(fmt.Sprintf("policy %s/%s/%d", bench, pols[j].Name, th),
						"policy", pols[j].Name, bench, pols[j].options(prof), th, class, true)
				},
				func(_ int, r *point) string { return speedup("%18.2f", base, r) })
			p.printf("\n# Policy abort attribution — %s on %s, %d threads\n", bench, prof.Name, maxTh)
			attributions(m[len(m)-1])
		}
	}
	// WEBrick: the server workload the paper used on both machines. Requests
	// and client counts match Figure 7 so the numbers stay comparable.
	requests := 3000
	clientsList := []int{1, 2, 4, 6}
	if quick {
		requests = 800
		clientsList = []int{1, 4}
	}
	for _, a := range []struct {
		prof *htm.Profile
		zos  bool
	}{{htm.ZEC12(), true}, {htm.XeonE3(), false}} {
		prof := a.prof
		maxCl := clientsList[len(clientsList)-1]
		wc := func(cfg Config, clients int) webrick.Config {
			return webrick.Config{Prof: prof, Mode: cfg.Mode, Policy: cfg.Policy,
				Clients: clients, Requests: requests, ZOSMalloc: a.zos}
		}
		p.printf("\n# Policy comparison — webrick on %s (throughput, 1 = 1-client GIL)\n", prof.Name)
		base := p.server(fmt.Sprintf("policy webrick baseline %s", prof.Name),
			"policy", "webrick", gil.Name, wc(gil, 1), false)
		m := p.grid("clients", 10, clientsList, names(pols), 18,
			func(cl, j int) *point {
				return p.server(fmt.Sprintf("policy webrick/%s/%s/%d", prof.Name, pols[j].Name, cl),
					"policy", "webrick", pols[j].Name, wc(pols[j], cl), true)
			},
			func(_ int, r *point) string { return fmt.Sprintf("%18.2f", r.Throughput/base.Throughput) })
		p.printf("\n# Policy abort attribution — webrick on %s, %d clients\n", prof.Name, maxCl)
		attributions(m[len(m)-1])
	}
}
