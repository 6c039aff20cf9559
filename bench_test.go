// Benchmarks: one testing.B entry per paper table/figure, reporting the
// paper's headline metric for that experiment via b.ReportMetric. Problem
// sizes are the scaled test class so `go test -bench=.` completes in
// minutes; `cmd/htmgil-bench` runs the full sweeps.
package htmgil_test

import (
	"fmt"
	"testing"

	"htmgil"
	"htmgil/internal/htm"
	"htmgil/internal/npb"
	"htmgil/internal/railslite"
	"htmgil/internal/simmem"
	"htmgil/internal/vm"
	"htmgil/internal/webrick"
)

// runKernelOnce executes one kernel configuration under a contention
// policy ("" = paper-dynamic) and returns cycles.
func runKernelOnce(b *testing.B, bench npb.Bench, prof *htm.Profile, mode vm.Mode, pol string, threads int) int64 {
	b.Helper()
	opt := vm.DefaultOptions(prof, mode)
	opt.Policy = pol
	r, err := npb.Run(bench, opt, threads, npb.ParamsFor(bench, npb.ClassS))
	if err != nil {
		b.Fatal(err)
	}
	if !r.Valid {
		b.Fatalf("%s failed validation", bench)
	}
	return r.Cycles
}

// BenchmarkMicro covers the Section 5.3 micro-benchmark results (Figure 4
// workloads): HTM speedup over the GIL at 12 threads on zEC12.
func BenchmarkMicro(b *testing.B) {
	for _, bench := range npb.Micro {
		b.Run(string(bench), func(b *testing.B) {
			var speedup float64
			for i := 0; i < b.N; i++ {
				gil := runKernelOnce(b, bench, htm.ZEC12(), vm.ModeGIL, "", 12)
				dyn := runKernelOnce(b, bench, htm.ZEC12(), vm.ModeHTM, "", 12)
				speedup = float64(gil) / float64(dyn)
			}
			b.ReportMetric(speedup, "speedup-vs-GIL")
		})
	}
}

// BenchmarkNPB covers Figure 5: each kernel on each machine, HTM-dynamic
// speedup over the GIL at the machine's maximum thread count.
func BenchmarkNPB(b *testing.B) {
	for _, prof := range []*htm.Profile{htm.ZEC12(), htm.XeonE3()} {
		maxThreads := prof.HWThreads()
		for _, bench := range npb.Kernels {
			b.Run(prof.Name+"/"+string(bench), func(b *testing.B) {
				var speedup, abort float64
				for i := 0; i < b.N; i++ {
					gil := runKernelOnce(b, bench, prof, vm.ModeGIL, "", maxThreads)
					opt := vm.DefaultOptions(prof, vm.ModeHTM)
					r, err := npb.Run(bench, opt, maxThreads, npb.ParamsFor(bench, npb.ClassS))
					if err != nil {
						b.Fatal(err)
					}
					speedup = float64(gil) / float64(r.Cycles)
					abort = r.Stats.AbortRatio() * 100
				}
				b.ReportMetric(speedup, "speedup-vs-GIL")
				b.ReportMetric(abort, "abort%")
			})
		}
	}
}

// BenchmarkFixedLengths covers the fixed-length configurations of Figure 5
// (HTM-1/16/256) for one allocation-heavy kernel.
func BenchmarkFixedLengths(b *testing.B) {
	for _, tl := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("HTM-%d", tl), func(b *testing.B) {
			var speedup float64
			for i := 0; i < b.N; i++ {
				gil := runKernelOnce(b, npb.FT, htm.ZEC12(), vm.ModeGIL, "", 12)
				fix := runKernelOnce(b, npb.FT, htm.ZEC12(), vm.ModeHTM, fmt.Sprintf("fixed-%d", tl), 12)
				speedup = float64(gil) / float64(fix)
			}
			b.ReportMetric(speedup, "speedup-vs-GIL")
		})
	}
}

// BenchmarkLearning covers Figure 6(a): transactions against the TSX-style
// learning predictor; reports the recovery length in transactions after
// the write set shrinks below capacity.
func BenchmarkLearning(b *testing.B) {
	prof := htm.XeonE3()
	prof.InterruptMeanCycles = 0
	for i := 0; i < b.N; i++ {
		mem := simmem.NewMemory(simmem.Config{LineBytes: prof.LineBytes}, 1)
		base := mem.Reserve("data", 1<<21)
		ctx := htm.NewContext(prof, mem, 0, 42)
		capLines := prof.WriteCapBytes / prof.LineBytes
		run := func(lines, iters int) int {
			ok := 0
			for j := 0; j < iters; j++ {
				ctx.Begin(0)
				for l := 0; l < lines && !ctx.Tx.Doomed(); l++ {
					ctx.Tx.Store(base+simmem.Addr(l*prof.LineBytes), simmem.Word{Bits: 1})
				}
				if _, good := ctx.End(0); good {
					ok++
				} else {
					ctx.Abort()
				}
			}
			return ok
		}
		run(capLines+10, 3000) // build suspicion
		recovery := 0
		for run(capLines/4, 100) < 90 {
			recovery += 100
			if recovery > 100000 {
				b.Fatal("learning model never recovered")
			}
		}
		b.ReportMetric(float64(recovery), "recovery-txs")
	}
}

// BenchmarkFig6b covers Figure 6(b): BT with a longer run on Xeon, where
// HTM-dynamic approaches the best fixed length.
func BenchmarkFig6b(b *testing.B) {
	var dyn, fixed float64
	for i := 0; i < b.N; i++ {
		p := npb.ParamsFor(npb.BT, npb.ClassS)
		opt := vm.DefaultOptions(htm.XeonE3(), vm.ModeHTM)
		r, err := npb.Run(npb.BT, opt, 8, p)
		if err != nil {
			b.Fatal(err)
		}
		opt16 := vm.DefaultOptions(htm.XeonE3(), vm.ModeHTM)
		opt16.Policy = "fixed-16"
		r16, err := npb.Run(npb.BT, opt16, 8, p)
		if err != nil {
			b.Fatal(err)
		}
		dyn = float64(r16.Cycles) / float64(r.Cycles)
		fixed = 1
	}
	_ = fixed
	b.ReportMetric(dyn, "dynamic-vs-HTM16")
}

// BenchmarkWEBrick covers Figure 7 (left): WEBrick throughput, HTM over
// GIL at 4 clients.
func BenchmarkWEBrick(b *testing.B) {
	for _, prof := range []*htm.Profile{htm.ZEC12(), htm.XeonE3()} {
		b.Run(prof.Name, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				g, err := webrick.Run(webrick.Config{Prof: prof, Mode: vm.ModeGIL, Clients: 4, Requests: 1200, ZOSMalloc: prof.SMTWays == 1})
				if err != nil {
					b.Fatal(err)
				}
				h, err := webrick.Run(webrick.Config{Prof: prof, Mode: vm.ModeHTM, Clients: 4, Requests: 1200, ZOSMalloc: prof.SMTWays == 1})
				if err != nil {
					b.Fatal(err)
				}
				ratio = h.Throughput / g.Throughput
			}
			b.ReportMetric(ratio, "HTM-vs-GIL-throughput")
		})
	}
}

// BenchmarkRails covers Figure 7 (right): the Rails-like application on
// Xeon, HTM over GIL at 4 clients.
func BenchmarkRails(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		g, err := railslite.Run(railslite.Config{Prof: htm.XeonE3(), Mode: vm.ModeGIL, Clients: 4, Requests: 800})
		if err != nil {
			b.Fatal(err)
		}
		h, err := railslite.Run(railslite.Config{Prof: htm.XeonE3(), Mode: vm.ModeHTM, Clients: 4, Requests: 800})
		if err != nil {
			b.Fatal(err)
		}
		ratio = h.Throughput / g.Throughput
	}
	b.ReportMetric(ratio, "HTM-vs-GIL-throughput")
}

// BenchmarkFig8 covers Figure 8: HTM-dynamic abort ratio and GIL-wait
// share of the cycle breakdown at 12 threads on zEC12.
func BenchmarkFig8(b *testing.B) {
	var abort, gilWait float64
	for i := 0; i < b.N; i++ {
		opt := vm.DefaultOptions(htm.ZEC12(), vm.ModeHTM)
		r, err := npb.Run(npb.CG, opt, 12, npb.ParamsFor(npb.CG, npb.ClassS))
		if err != nil {
			b.Fatal(err)
		}
		abort = r.Stats.AbortRatio() * 100
		total := r.Stats.TotalCycles()
		if total > 0 {
			gilWait = 100 * float64(r.Stats.Cycles[vm.CatGILWait]) / float64(total)
		}
	}
	b.ReportMetric(abort, "abort%")
	b.ReportMetric(gilWait, "gil-wait%")
}

// BenchmarkFig9 covers Figure 9: scalability of the three runtimes at 12
// threads on one kernel, each normalized to its own single thread.
func BenchmarkFig9(b *testing.B) {
	for _, rt := range []struct {
		name string
		mode vm.Mode
	}{{"HTM-dynamic", vm.ModeHTM}, {"FGL", vm.ModeFGL}, {"Ideal", vm.ModeIdeal}} {
		b.Run(rt.name, func(b *testing.B) {
			var scal float64
			for i := 0; i < b.N; i++ {
				one := runKernelOnce(b, npb.FT, htm.ZEC12(), rt.mode, "", 1)
				twelve := runKernelOnce(b, npb.FT, htm.ZEC12(), rt.mode, "", 12)
				scal = float64(one) / float64(twelve)
			}
			b.ReportMetric(scal, "scalability-12t")
		})
	}
}

// BenchmarkAblation covers the Section 4.2/4.4 ablations: HTM speedup with
// each conflict removal disabled.
func BenchmarkAblation(b *testing.B) {
	variants := []struct {
		name string
		mut  func(*vm.Options)
	}{
		{"full", func(o *vm.Options) {}},
		{"no-extended-yield-points", func(o *vm.Options) { o.ExtendedYieldPoints = false }},
		{"no-tl-freelists", func(o *vm.Options) { o.ThreadLocalFreeLists = false }},
		{"globals-not-tls", func(o *vm.Options) { o.GlobalVarsToTLS = false }},
		{"unpadded-thread-structs", func(o *vm.Options) { o.PaddedThreadStructs = false }},
	}
	for _, va := range variants {
		b.Run(va.name, func(b *testing.B) {
			var speedup float64
			for i := 0; i < b.N; i++ {
				gil := runKernelOnce(b, npb.FT, htm.ZEC12(), vm.ModeGIL, "", 8)
				opt := vm.DefaultOptions(htm.ZEC12(), vm.ModeHTM)
				va.mut(&opt)
				r, err := npb.Run(npb.FT, opt, 8, npb.ParamsFor(npb.FT, npb.ClassS))
				if err != nil {
					b.Fatal(err)
				}
				speedup = float64(gil) / float64(r.Cycles)
			}
			b.ReportMetric(speedup, "speedup-vs-GIL")
		})
	}
}

// BenchmarkInterpreter is a plain interpreter-speed benchmark: simulated
// bytecodes per host second in single-thread GIL mode.
func BenchmarkInterpreter(b *testing.B) {
	m := htmgil.NewMachine(htmgil.ZEC12(), htmgil.ModeGIL)
	src := `
x = 0
i = 0
while i < 100000
  x += i
  i += 1
end
puts x
`
	iseq, err := m.VM.CompileSource(src, "bench")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	total := uint64(0)
	for i := 0; i < b.N; i++ {
		m2 := htmgil.NewMachine(htmgil.ZEC12(), htmgil.ModeGIL)
		iseq2, _ := m2.VM.CompileSource(src, "bench")
		res, err := m2.VM.Run(iseq2)
		if err != nil {
			b.Fatal(err)
		}
		total += res.Stats.Bytecodes
	}
	_ = iseq
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "bytecodes/s")
}
