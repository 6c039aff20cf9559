package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"htmgil/internal/gil"
	"htmgil/internal/vm"
)

// A point is one single-threaded, deterministic simulation of a workload.
// A pass runs every point of the workload once, back to back, on the
// calling goroutine.
type point struct {
	name string
	// measured points make up sim_mcycles, sim_waste_frac and the Stats
	// counters; the others (the npb-htm GIL@1 bases) only normalise.
	measured bool
	exec     func(p *pointResult) error
}

// pointResult is what one point produced in one pass.
type pointResult struct {
	name     string
	measured bool
	setup    time.Duration // vm.New, the installs and CompileSource
	run      time.Duration // everything else the point times
	cal      time.Duration // the calibration kernel's time just before the point
	ops      int           // operations attempted
	failed   int           // operations that errored, panicked or failed validation
	err      string

	cycles int64
	stats  *vm.Stats
	gil    *gil.Stats // the root GIL, when the benchmark built the machine
	// digest holds the point's simulated numbers beyond cycles and Stats,
	// rendered for the digest (latency samples, checksums, ...).
	digest []string
	// serving carries a serving point's requests to the summary.
	serving *servingRun

	tr     *tracer
	spanID int
}

// setupStep and runStep time fn into the point's set-up or run total. In
// a traced pass they also record a span and label fn's CPU profile samples
// with the phase.
func (p *pointResult) setupStep(name string, fn func() error) error {
	return p.step(&p.setup, "setup", name, fn)
}

func (p *pointResult) runStep(name string, fn func() error) error {
	return p.step(&p.run, "run", name, fn)
}

func (p *pointResult) step(total *time.Duration, phase, name string, fn func() error) error {
	var err error
	t0 := time.Now()
	if p.tr == nil {
		err = fn()
	} else {
		pprof.Do(context.Background(), pprof.Labels(spanLabel, phase), func(context.Context) { err = fn() })
	}
	t1 := time.Now()
	*total += t1.Sub(t0)
	if p.tr != nil {
		p.tr.add(name, p.spanID, t0, t1)
	}
	return err
}

// passResult is one pass over a workload's points.
type passResult struct {
	points []*pointResult
	wall   time.Duration
	alloc  uint64 // Go heap bytes allocated during the pass
}

// runPass executes every point once. A host panic or an error in a point is
// recovered and counts all of that point's operations as failed.
func runPass(pts []point, tr *tracer) *passResult {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	t0 := time.Now()
	pr := &passResult{}
	for _, pt := range pts {
		// Every point starts from a collected heap, so that the garbage of
		// the point before is not collected on this point's time.
		runtime.GC()
		p := &pointResult{name: pt.name, measured: pt.measured, tr: tr, cal: calibrate()}
		if tr != nil {
			p.spanID = tr.beginPoint(pt.name)
		}
		err := execPoint(pt, p)
		if tr != nil {
			tr.end(p.spanID)
		}
		if err != nil {
			p.err = err.Error()
			if p.ops == 0 {
				p.ops = 1
			}
			p.failed = p.ops
		}
		pr.points = append(pr.points, p)
	}
	pr.wall = time.Since(t0)
	runtime.ReadMemStats(&ms)
	pr.alloc = ms.TotalAlloc - alloc0
	return pr
}

func execPoint(pt point, p *pointResult) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return pt.exec(p)
}

// counts sums attempted and failed operations over passes.
func counts(passes []*passResult) (attempted, failed int) {
	for _, ps := range passes {
		for _, p := range ps.points {
			attempted += p.ops
			failed += p.failed
		}
	}
	return attempted, failed
}

// perPointMedian sums, over the points, the median across passes of one
// per-point duration: a typical pass's time, robust to a pass that a noisy
// host slowed.
func perPointMedian(passes []*passResult, f func(*pointResult) time.Duration) float64 {
	if len(passes) == 0 {
		return 0
	}
	total := 0.0
	for i := range passes[0].points {
		ds := make([]time.Duration, 0, len(passes))
		for _, ps := range passes {
			ds = append(ds, f(ps.points[i]))
		}
		total += medianDuration(ds)
	}
	return total
}

// digestLines renders every simulated number of a pass, one line per
// point, and a last line with their SHA-256. Two passes of one seed must
// render identically.
func digestLines(ps *passResult) []string {
	var lines []string
	h := sha256.New()
	for _, p := range ps.points {
		l := fmt.Sprintf("%s cycles=%d %s", p.name, p.cycles, statsDigest(p.stats))
		if p.gil != nil {
			l += fmt.Sprintf(" gil.acq=%d gil.contended=%d gil.hold=%d", p.gil.Acquisitions, p.gil.Contended, p.gil.HoldCycles)
		}
		if len(p.digest) > 0 {
			l += " " + strings.Join(p.digest, " ")
		}
		if p.err != "" {
			l += fmt.Sprintf(" error=%q", p.err)
		}
		lines = append(lines, l)
		fmt.Fprintln(h, l)
	}
	return append(lines, "sha256="+hex.EncodeToString(h.Sum(nil))[:16])
}

// statsDigest renders a Stats bundle with sorted map keys.
func statsDigest(st *vm.Stats) string {
	if st == nil {
		return "stats=none"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "cyc=%v bc=%d yields=%d fallbacks=%d adj=%d gcs=%d gccyc=%d",
		st.Cycles, st.Bytecodes, st.Yields, st.GILFallbacks, st.Adjustments, st.GCs, st.GCCycles)
	if st.HTM != nil {
		fmt.Fprintf(&b, " htm=%d/%d/%d", st.HTM.Begins, st.HTM.Commits, st.HTM.Aborts)
	}
	if st.OCC != nil {
		fmt.Fprintf(&b, " occ=%d/%d/%d/%d/%d", st.OCC.Begins, st.OCC.Commits, st.OCC.Aborts,
			st.OCC.Validations, st.OCC.ValidationFailures)
	}
	causes := map[string]uint64{}
	for c, n := range st.AbortCauses {
		causes[c.String()] = n
	}
	writeSorted(&b, " causes", causes)
	writeSorted(&b, " regions", st.ConflictRegions)
	hist := map[string]uint64{}
	for l, n := range st.LengthHistogram {
		hist[fmt.Sprint(l)] = uint64(n)
	}
	writeSorted(&b, " lengths", hist)
	if len(st.ShardFallbacks) > 0 || st.CrossShardLeaks > 0 {
		fmt.Fprintf(&b, " shardfb=%v leaks=%d", st.ShardFallbacks, st.CrossShardLeaks)
	}
	return b.String()
}

func writeSorted(b *strings.Builder, name string, m map[string]uint64) {
	if len(m) == 0 {
		return
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b.WriteString(name + "=")
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, "%s:%d", k, m[k])
	}
}
