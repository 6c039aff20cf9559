package bench

import (
	"fmt"
	"io"
	"strconv"

	"htmgil/internal/core"
	"htmgil/internal/fault"
	"htmgil/internal/htm"
	"htmgil/internal/npb"
	"htmgil/internal/vm"
	"htmgil/internal/webrick"
)

// The chaos experiment sweeps the named fault profiles (fault.ChaosProfiles)
// over the WEBrick server and one NPB kernel with the elision circuit
// breaker and the degradation watchdog always on. Each row reports the
// throughput under faults (absolute and relative to the clean profile), the
// abort ratio, the GIL fallbacks, the per-run injection/trip/degradation
// counters, and — for profiles with an until= horizon — the time-to-recover:
// the cycles between the fault horizon clearing and the breaker settling
// closed. Like the policy experiment, every point attaches an aggregator so
// the fault and breaker events land in the Reports, which also carry the
// canonical spec text and the effective fault-stream seed that reproduce the
// run byte for byte.

// timeToRecover measures graceful degradation: the cycles between the
// spec's fault horizon clearing (until=) and the breaker's final settle
// into the closed state. nil when the profile has no bounded horizon (there
// is nothing to recover from); -1 when the breaker tripped and never closed
// again within the run; 0 when it never tripped at all.
func timeToRecover(st *vm.Stats, spec *fault.Spec) *int64 {
	if spec == nil || spec.Until <= 0 {
		return nil
	}
	var v int64
	if n := len(st.BreakerTransitions); n > 0 {
		v = -1
		if last := st.BreakerTransitions[n-1]; last.State == core.BreakerClosed.String() {
			if v = last.T - spec.Until; v < 0 {
				v = 0
			}
		}
	}
	return &v
}

// faultSeed is the effective fault-stream seed of a run under spec: the
// spec's own override when set, else the run seed the workload harnesses
// use (vm.DefaultOptions).
func faultSeed(spec *fault.Spec, prof *htm.Profile) int64 {
	if spec.Seed != 0 {
		return spec.Seed
	}
	return vm.DefaultOptions(prof, vm.ModeHTM).Seed
}

// mustSpec parses one of the experiments' built-in fault specs. They are
// fixed when the package is compiled, so an error is a bug in the sweep.
func mustSpec(text string) *fault.Spec {
	spec, err := fault.ParseSpec(text)
	if err != nil {
		panic(err)
	}
	return spec
}

// chaosRow renders one profile row; tput and rel are computed by the caller
// (server rows use request throughput, kernel rows use cycle ratios).
func chaosRow(w io.Writer, name string, tput, rel float64, r *point) error {
	rec := "-"
	if r.RecoverCycles != nil {
		rec = strconv.FormatInt(*r.RecoverCycles, 10)
	}
	_, err := fmt.Fprintf(w, "%-14s%12.1f%8.2f%8.1f%%%11d%8d%7d%7d%10s\n",
		name, tput, rel, r.AbortRatio*100, r.Fallbacks, sum(r.FaultCounts), r.BreakerOpens, sum(r.Degradations), rec)
	return err
}

// sum totals a counter map.
func sum(counts map[string]uint64) uint64 {
	var t uint64
	for _, n := range counts {
		t += n
	}
	return t
}

const chaosHeader = "%-14s%12s%8s%9s%11s%8s%7s%7s%10s\n"

// buildChaos enumerates the chaos experiment: every fault profile against
// WEBrick on zEC12 and against the CG kernel, breaker and watchdog on.
func (s *Session) buildChaos(p *plan) {
	quick := s.Quick
	profiles := fault.ChaosProfiles()
	p.printf("\n# Chaos — fault profiles (elision breaker + degradation watchdog on)\n")
	for _, ns := range profiles {
		text := ns.Text
		if text == "" {
			text = "(no faults)"
		}
		p.printf("#   %-14s %s\n", ns.Name, text)
	}

	// WEBrick runs on the Xeon profile, where elision works well enough
	// (Figure 7) that the clean baseline keeps the breaker closed; on zEC12
	// the server's intrinsic abort storm would drown out the injected
	// faults this experiment is about.
	srvProf := htm.XeonE3()
	requests := 1500
	clients := 4
	if quick {
		requests = 400
	}
	p.printf("\n# Chaos — webrick on %s, %d clients, %d requests (rel = tput/clean)\n",
		srvProf.Name, clients, requests)
	p.printf(chaosHeader, "profile", "tput", "rel", "abort%", "fallbacks", "faults", "trips", "degr", "recover")
	var base *point
	for i, ns := range profiles {
		r := p.server(fmt.Sprintf("chaos webrick/%s", ns.Name), "chaos", "webrick", ns.Name,
			webrick.Config{Prof: srvProf, Mode: vm.ModeHTM, Clients: clients, Requests: requests,
				Faults: mustSpec(ns.Text), Breaker: true, Watchdog: true}, true)
		if i == 0 {
			base = r
		}
		b := base
		p.cell(func(w io.Writer) error {
			return chaosRow(w, ns.Name, r.Throughput, r.Throughput/b.Throughput, r)
		})
	}

	prof := htm.ZEC12()
	threads := 8
	class := classFor(quick)
	p.printf("\n# Chaos — %s on %s, %d threads (validated; rel = clean-cycles/cycles; tput in Mcycles)\n",
		npb.CG, prof.Name, threads)
	p.printf(chaosHeader, "profile", "Mcycles", "rel", "abort%", "fallbacks", "faults", "trips", "degr", "recover")
	base = nil
	for i, ns := range profiles {
		opt := vm.DefaultOptions(prof, vm.ModeHTM)
		opt.Faults, opt.Breaker, opt.Watchdog = mustSpec(ns.Text), true, true
		r := p.kernel(fmt.Sprintf("chaos %s/%s", npb.CG, ns.Name), "chaos", ns.Name, npb.CG, opt, threads, class, true)
		if i == 0 {
			base = r
		}
		b := base
		p.cell(func(w io.Writer) error {
			return chaosRow(w, ns.Name, float64(r.Cycles)/1e6, float64(b.Cycles)/float64(r.Cycles), r)
		})
	}
}
