// Command perfbench is the repository's benchmark. It runs one workload of
// the simulator for a fixed host time and prints, as its last line, one
// JSON object with the run's correctness, its operation counts and its
// metrics. See README.md for the workloads, the metrics and what each
// layer metric should move.
//
//	go run . --workload npb-htm --seed 1 --seconds 24 --trace 0
//
// With --trace 0 it reports the end-to-end metrics: host cost (set-up and
// run time, allocation, peak RSS) and the generic simulated outcome. With
// --trace 1 it reports the per-layer metrics: spans and a CPU profile of
// traced passes, the layer drivers, the simulator's own Stats counters and
// the workload-specific simulated results.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"htmgil/internal/simmem"
	"htmgil/internal/vm"
)

// minPasses is the fewest passes an untraced run makes, so that every
// per-point median has a middle value even when a pass is long. The traced
// run, whose numbers have no bound, makes at least one of each kind.
const minPasses = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: npb-htm, npb-gil, datastore or serving")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 24, "host seconds to measure for")
	traced := flag.Int("trace", 0, "1: report the per-layer metrics from a traced run")
	outdir := flag.String("outdir", ".bench_build", "directory for the traced run's spans, profile and Stats")
	flag.Parse()

	var w *workload
	for _, wl := range workloads() {
		if wl.name == *name {
			w = &wl
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	budget := time.Duration(*seconds) * time.Second
	var res *result
	var err error
	if *traced == 1 {
		res, err = tracedRun(w, *seed, budget, *outdir)
	} else {
		res = untracedRun(w, *seed, budget)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printResult(res)
}

// passes runs passes of the workload until the next would end past the
// budget, and at least minPasses.
func passes(pts []point, budget time.Duration) []*passResult {
	start := time.Now()
	var out []*passResult
	for {
		out = append(out, runPass(pts, nil))
		if len(out) >= minPasses && time.Since(start)+typicalWall(out) > budget {
			return out
		}
	}
}

// typicalWall is the median wall time of the passes made so far.
func typicalWall(ps []*passResult) time.Duration {
	walls := make([]time.Duration, len(ps))
	for i, p := range ps {
		walls[i] = p.wall
	}
	return time.Duration(medianDuration(walls) * float64(time.Second))
}

// deterministic reports whether every pass rendered the same simulated
// digest as the first.
func deterministic(ps []*passResult) bool {
	first := strings.Join(digestLines(ps[0]), "\n")
	for _, p := range ps[1:] {
		if strings.Join(digestLines(p), "\n") != first {
			return false
		}
	}
	return true
}

// counted returns attempted and failed operations; when a pass's simulated
// results differ from the first pass's, every operation counts as failed.
func counted(ps []*passResult) (int, int) {
	attempted, failed := counts(ps)
	if !deterministic(ps) {
		failed = attempted
	}
	return attempted, failed
}

func untracedRun(w *workload, seed int64, budget time.Duration) *result {
	ps := passes(w.points(seed), budget)
	printDigest(w, ps)
	attempted, failed := counted(ps)
	allocs := make([]float64, len(ps))
	for i, p := range ps {
		allocs[i] = float64(p.alloc) / 1e6
	}
	scale := speedScale(ps)
	return &result{
		Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: map[string]metric{
			"setup_s":       {scale * perPointMedian(ps, setupOf), "s"},
			"host_s":        {scale * perPointMedian(ps, runOf), "s"},
			"host_alloc_mb": {median(allocs), "MB"},
			"peak_rss_mb":   {peakRSSMB(), "MB"},
			"sim_mcycles":   {float64(measuredCycles(ps[0])) / 1e6, "Mcycles"},
		},
	}
}

// tracedRun measures the layer drivers, then alternates untraced passes
// with traced ones (spans on, CPU profile on) for the rest of the budget,
// and writes the spans, the profiles and the Stats under outdir.
func tracedRun(w *workload, seed int64, budget time.Duration, outdir string) (*result, error) {
	start := time.Now()
	m := map[string]metric{}
	for _, d := range drivers() {
		v, err := d.measure()
		if err != nil {
			return nil, err
		}
		m[d.name] = metric{v, d.unit}
	}

	dir := filepath.Join(outdir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", w.name, seed))
	pts := w.points(seed)
	tr := newTracer()
	var plain, traced []*passResult
	var samples []profSample
	for i := 0; ; i++ {
		plain = append(plain, runPass(pts, nil))
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		traced = append(traced, runPass(pts, tr))
		pprof.StopCPUProfile()
		s, err := parseProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		samples = append(samples, s...)
		if err := os.WriteFile(fmt.Sprintf("%s.%d.cpu.pprof", base, i), prof.Bytes(), 0o644); err != nil {
			return nil, err
		}
		if time.Since(start)+2*typicalWall(plain) > budget {
			break
		}
	}
	all := append(append([]*passResult(nil), plain...), traced...)
	printDigest(w, all)

	// Spans and the package split of the run spans.
	perPass := func(name string) float64 { return tr.total(name) / float64(len(traced)) }
	m["vm.new_s"] = metric{perPass("vm.new"), "s"}
	m["compile.s"] = metric{perPass("compile"), "s"}
	m["keyspace.install_s"] = metric{perPass("keyspace.install"), "s"}
	m["netsim.install_s"] = metric{perPass("netsim.install"), "s"}
	hostPlain := perPointMedian(plain, runOf)
	m["host_wall_s"] = metric{hostPlain, "s"}
	m["setup_wall_s"] = metric{perPointMedian(plain, setupOf), "s"}
	m["calib_ms"] = metric{calRef.Seconds() * 1e3 / speedScale(plain), "ms"}
	hostTraced := perPointMedian(traced, runOf)
	m["run.s"] = metric{hostTraced, "s"}
	m["trace_overhead_frac"] = metric{ratio(hostTraced, hostPlain) - 1, "frac"}
	shares := bucketShares(samples, spanLabel, "run")
	for _, pkg := range layerPkgs {
		m[pkg+".self_frac"] = metric{shares[pkg], "frac"}
	}
	for _, b := range runtimeBuckets {
		m["go."+b+"_frac"] = metric{shares["go."+b], "frac"}
	}

	// The simulator's own counters and the workload's simulated results.
	for k, v := range simCounters(plain[0]) {
		m[k] = v
	}
	var cycles int64
	for _, p := range plain[0].points {
		cycles += p.cycles
	}
	m["sim.mcycles_per_host_s"] = metric{ratio(float64(cycles)/1e6, hostPlain), "Mcycles/s"}
	out := w.summary(plain[0])
	for _, om := range outcomeMetrics {
		m[om.name] = metric{out.metrics[om.name], om.unit}
	}

	if err := tr.write(base + ".spans.jsonl"); err != nil {
		return nil, err
	}
	if err := writeStats(base+".stats.json", plain[0]); err != nil {
		return nil, err
	}
	attempted, failed := counted(all)
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

func runOf(p *pointResult) time.Duration   { return p.run }
func setupOf(p *pointResult) time.Duration { return p.setup }

// measuredCycles sums the simulated cycles of a pass's measured points.
func measuredCycles(ps *passResult) int64 {
	var c int64
	for _, p := range ps.points {
		if p.measured {
			c += p.cycles
		}
	}
	return c
}

// simCounters sums the Stats of a pass's measured points into the
// per-layer counters. A layer that did no work reads 0.
func simCounters(ps *passResult) map[string]metric {
	var (
		cycles                       int64
		cats                         [vm.NumCats]int64
		bytecodes, fallbacks, adjust uint64
		gcs, shardFB, leaks          uint64
		gcCycles                     int64
		htmBegins, htmCommits, htmAb uint64
		capAb, conflictAb            uint64
		occBegins, occCommits        uint64
		validations, validationFails uint64
		gilAcq, gilContended         uint64
		completed, connsPeak         int
	)
	for _, p := range ps.points {
		if r := p.serving; r != nil {
			completed += r.completed
			connsPeak = max(connsPeak, r.connsPeak)
		}
		if !p.measured || p.stats == nil {
			continue
		}
		st := p.stats
		cycles += p.cycles
		for c, v := range st.Cycles {
			cats[c] += v
		}
		bytecodes += st.Bytecodes
		fallbacks += st.GILFallbacks
		adjust += st.Adjustments
		gcs += st.GCs
		gcCycles += st.GCCycles
		leaks += st.CrossShardLeaks
		for _, n := range st.ShardFallbacks {
			shardFB += n
		}
		if st.HTM != nil {
			htmBegins += st.HTM.Begins
			htmCommits += st.HTM.Commits
			htmAb += st.HTM.Aborts
			capAb += st.HTM.ByCause[simmem.CauseReadOverflow] + st.HTM.ByCause[simmem.CauseWriteOverflow]
			conflictAb += st.HTM.ByCause[simmem.CauseConflict]
		}
		if st.OCC != nil {
			occBegins += st.OCC.Begins
			occCommits += st.OCC.Commits
			validations += st.OCC.Validations
			validationFails += st.OCC.ValidationFailures
		}
		if p.gil != nil {
			gilAcq += p.gil.Acquisitions
			gilContended += p.gil.Contended
		}
	}
	var total int64
	for _, v := range cats {
		total += v
	}
	frac := func(c vm.CycleCat) metric { return metric{ratio(float64(cats[c]), float64(total)), "frac"} }
	count := func(n uint64) metric { return metric{float64(n), "count"} }
	return map[string]metric{
		"vm.bytecodes":             count(bytecodes),
		"htm.begins":               count(htmBegins),
		"htm.commit_ratio":         {ratio(float64(htmCommits), float64(htmBegins)), "frac"},
		"htm.capacity_abort_frac":  {ratio(float64(capAb), float64(htmAb)), "frac"},
		"htm.conflict_abort_frac":  {ratio(float64(conflictAb), float64(htmAb)), "frac"},
		"core.gil_fallbacks":       count(fallbacks),
		"policy.adjustments":       count(adjust),
		"gil.acquisitions":         count(gilAcq),
		"gil.contended_frac":       {ratio(float64(gilContended), float64(gilAcq)), "frac"},
		"occ.commit_ratio":         {ratio(float64(occCommits), float64(occBegins)), "frac"},
		"occ.validation_fail_frac": {ratio(float64(validationFails), float64(validations)), "frac"},
		"heap.gcs":                 count(gcs),
		"heap.gc_frac":             {ratio(float64(gcCycles), float64(total)), "frac"},
		"cycles.tx_success_frac":   frac(vm.CatTxSuccess),
		"cycles.tx_aborted_frac":   frac(vm.CatTxAborted),
		"cycles.begin_end_frac":    frac(vm.CatBeginEnd),
		"cycles.gil_held_frac":     frac(vm.CatGILHeld),
		"cycles.gil_wait_frac":     frac(vm.CatGILWait),
		"cycles.io_wait_frac":      frac(vm.CatIOWait),
		"db.shard_fallbacks":       count(shardFB),
		"db.cross_shard_leaks":     count(leaks),
		"netsim.completed":         count(uint64(completed)),
		"netsim.conns_peak":        count(uint64(connsPeak)),
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB, falling
// back to the Go runtime's total obtained memory where /proc is absent.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / 1e6
}

// printDigest prints the first pass's simulated numbers and the
// workload's simulated results, and flags passes that differ.
func printDigest(w *workload, ps []*passResult) {
	for _, l := range digestLines(ps[0]) {
		fmt.Printf("digest %s %s\n", w.name, l)
	}
	for _, l := range w.summary(ps[0]).lines {
		fmt.Printf("digest %s %s\n", w.name, l)
	}
	if !deterministic(ps) {
		fmt.Printf("digest %s MISMATCH: simulated results differ between passes of one seed\n", w.name)
	}
}

// writeStats saves each point's Stats as JSON.
func writeStats(path string, ps *passResult) error {
	type entry struct {
		Point  string    `json:"point"`
		Cycles int64     `json:"cycles"`
		Stats  *vm.Stats `json:"stats"`
	}
	var es []entry
	for _, p := range ps.points {
		es = append(es, entry{p.name, p.cycles, p.stats})
	}
	data, err := json.MarshalIndent(es, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printResult prints every metric by name with its unit and the failed
// share of operations, then the JSON result as the last line.
func printResult(r *result) {
	out := bufio.NewWriter(os.Stdout)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "metric %-34s %16.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(out, "fail_frac %g (%d of %d operations failed)\n", failFrac(r.Failed, r.Attempted), r.Failed, r.Attempted)
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintln(out, string(line))
	if err := out.Flush(); err != nil {
		os.Exit(1)
	}
}
