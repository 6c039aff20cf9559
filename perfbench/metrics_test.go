package main

import (
	"bytes"
	"context"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"htmgil/internal/keyspace"
	"htmgil/internal/npb"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{1, 4, 16}); !near(g, 4) {
		t.Fatalf("geomean(1,4,16) = %v, want 4", g)
	}
	if g := geomean(nil); g != 0 {
		t.Fatalf("geomean() = %v, want 0", g)
	}
}

func TestNearestRank(t *testing.T) {
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for _, tc := range []struct {
		p      float64
		v      int64
		beyond int
	}{{50, 50, 50}, {99, 99, 1}, {100, 100, 0}, {0.5, 1, 99}} {
		v, beyond := nearestRank(s, tc.p)
		if v != tc.v || beyond != tc.beyond {
			t.Errorf("p%v = %d (%d beyond), want %d (%d beyond)", tc.p, v, beyond, tc.v, tc.beyond)
		}
	}
}

// TestTailNeedsTenBeyond: p99 is reported only once ten samples lie beyond
// it, which takes 1000 samples; with fewer the highest percentile that has
// ten beyond it is reported instead.
func TestTailNeedsTenBeyond(t *testing.T) {
	sample := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i)
		}
		return s
	}
	for _, tc := range []struct {
		n  int
		p  float64
		ok bool
	}{{1000, 99, true}, {999, 95, true}, {10000, 99.9, true}, {200, 95, true}, {100, 90, true}, {20, 50, true}, {19, 0, false}} {
		p, v, ok := tail(sample(tc.n))
		if p != tc.p || ok != tc.ok {
			t.Errorf("n=%d: tail p%v ok=%v, want p%v ok=%v", tc.n, p, ok, tc.p, tc.ok)
		}
		if ok {
			// sample holds 0..n-1, so the value at rank r is r-1.
			if _, beyond := nearestRank(sample(tc.n), p); beyond < 10 || v != int64(tc.n-beyond-1) {
				t.Errorf("n=%d: p%v = %d with %d beyond", tc.n, p, v, beyond)
			}
		}
	}
}

func TestPaperGap(t *testing.T) {
	if g := paperGap([]float64{2, 3}, []float64{2, 3}); g != 0 {
		t.Fatalf("gap of an exact match = %v, want 0", g)
	}
	// Off by e and by 1/e^4: |ln| is 1 and 4, whose geometric mean is 2.
	if g := paperGap([]float64{math.E * 2, 3 / math.Exp(4)}, []float64{2, 3}); !near(g, 2) {
		t.Fatalf("gap = %v, want 2", g)
	}
}

func TestFailFrac(t *testing.T) {
	if f := failFrac(3, 12); !near(f, 0.25) {
		t.Fatalf("failFrac(3, 12) = %v", f)
	}
	if f := failFrac(0, 0); f != 0 {
		t.Fatalf("failFrac(0, 0) = %v", f)
	}
	attempted, failed := counts([]*passResult{{points: []*pointResult{{ops: 10, failed: 1}, {ops: 5}}},
		{points: []*pointResult{{ops: 10}, {ops: 5, failed: 5}}}})
	if attempted != 30 || failed != 6 {
		t.Fatalf("counts = %d/%d, want 30/6", attempted, failed)
	}
}

func TestBucketOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memclrNoHeapPointers", "htmgil/internal/simmem.(*Tx).cleanup"}, "go.memclr"},
		{[]string{"htmgil/internal/simmem.(*Tx).Store", "htmgil/internal/vm.(*RThread).step"}, "simmem"},
		{[]string{"htmgil/internal/vm.(*VM).exec.func1"}, "vm"},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "htmgil/internal/htm.(*Context).Begin"}, "go.map"},
		{[]string{"runtime.mapaccess2_fast64", "htmgil/internal/occ.(*Tx).Load"}, "go.map"},
		{[]string{"runtime.mallocgc", "runtime.newobject", "htmgil/internal/heap.New"}, "go.alloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2"}, "go.gc"},
		{[]string{"runtime.memmove", "runtime.gcAssistAlloc", "runtime.mallocgc"}, "go.gc"},
		{[]string{"strings.Index"}, "other"},
		{nil, "other"},
	} {
		if got := bucketOf(tc.stack); got != tc.want {
			t.Errorf("bucketOf(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

func TestBucketShares(t *testing.T) {
	samples := []profSample{
		{stack: []string{"htmgil/internal/vm.run"}, value: 60, labels: map[string]string{"span": "run"}},
		{stack: []string{"runtime.memclrNoHeapPointers"}, value: 20, labels: map[string]string{"span": "run"}},
		{stack: []string{"runtime.gcBgMarkWorker"}, value: 20, labels: map[string]string{}},
		{stack: []string{"htmgil/internal/compile.(*Compiler).Compile"}, value: 900, labels: map[string]string{"span": "setup"}},
	}
	s := bucketShares(samples, "span", "run")
	if !near(s["vm"], 0.6) || !near(s["go.memclr"], 0.2) || !near(s["go.gc"], 0.2) || s["compile"] != 0 {
		t.Fatalf("shares = %v", s)
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			n += i * i
		}
	}
	return n
}

// TestParseProfile decodes a real CPU profile of a labelled busy loop.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	pprof.Do(context.Background(), pprof.Labels(spanLabel, "run"), func(context.Context) { spin(300 * time.Millisecond) })
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var labelled int64
	for _, s := range samples {
		if s.labels[spanLabel] != "run" {
			continue
		}
		for _, f := range s.stack {
			if f == "htmgil/perfbench.spin" {
				labelled += s.value
			}
		}
	}
	if labelled <= 0 {
		t.Fatalf("no labelled samples of spin among %d samples", len(samples))
	}
	if _, err := parseProfile([]byte{0x0a, 0xff}); err == nil {
		t.Fatal("truncated protobuf parsed without error")
	}
}

func TestNPBResultLine(t *testing.T) {
	valid, sum, err := npbResultLine("x\nRESULT cg valid=true checksum=0.99\nmore\n", npb.CG)
	if err != nil || !valid || sum != "0.99" {
		t.Fatalf("got %v %q %v", valid, sum, err)
	}
	if _, _, err := npbResultLine("nothing", npb.CG); err == nil {
		t.Fatal("missing result line accepted")
	}
	ref := &npbRef{valid: true, cg: 1}
	if err := npbCheck(npb.CG, true, "0.5", ref); err == nil {
		t.Fatal("wrong CG checksum accepted")
	}
	if err := npbCheck(npb.BT, false, "", ref); err == nil {
		t.Fatal("invalid kernel accepted")
	}
}

// TestChecksumBounds: a read-only mix reads only the initial 0s, and a
// scan's row count does not depend on the interleaving, so both checksums
// are exact; a mix that reads rows others update gets a range.
func TestChecksumBounds(t *testing.T) {
	for _, tc := range []struct {
		wl    string
		exact bool
	}{{"C", true}, {"E", true}, {"A", false}, {"tpcc", false}} {
		d, err := keyspace.NewDriver(keyspace.Config{Workload: tc.wl, Keys: 500, Threads: 4, Ops: 30, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := checksumBounds(d)
		if lo > hi || (tc.exact && lo != hi) || (tc.wl == "C" && hi != 0) || (tc.wl == "E" && lo <= 0) {
			t.Errorf("%s: bounds [%d, %d]", tc.wl, lo, hi)
		}
	}
}
