package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"htmgil/internal/htm"
	"htmgil/internal/npb"
)

// outputs is every observable output of one experiment run: the
// plain-text tables, the Reports JSON, the flat CSV and the trace digest.
type outputs struct {
	table, reports, csv, digest string
}

// quickRuns memoizes runExperiment by name and worker count, so a content
// test reads the outputs the determinism test already produced instead of
// running the experiment again.
var quickRuns = map[string]outputs{}

// runExperiment runs one quick experiment through Session.Run with trace
// summaries on and returns its outputs.
func runExperiment(t *testing.T, name string, parallel int) outputs {
	t.Helper()
	key := fmt.Sprintf("%s/%d", name, parallel)
	if out, ok := quickRuns[key]; ok {
		return out
	}
	var tb, rep, cv, dig strings.Builder
	s := NewSession(&tb, true)
	s.TraceSummary = true
	s.Parallel = parallel
	if err := s.Run(name); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteReports(&rep); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteReportsCSV(&cv); err != nil {
		t.Fatal(err)
	}
	s.WriteTraceSummaries(&dig)
	out := outputs{tb.String(), rep.String(), cv.String(), dig.String()}
	quickRuns[key] = out
	return out
}

// TestExperimentDeterminism runs each experiment sequentially and on eight
// workers and requires byte-identical tables, Reports JSON, CSV and trace
// digests: millions of simulated memory accesses under racing policies,
// fault streams and open-loop arrivals must never leak host
// nondeterminism into the outputs. Under -race this also exercises the
// worker pool for data races between points. check then spot-checks the
// content of the sequential run.
func TestExperimentDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name  string
		check func(t *testing.T, out outputs)
	}{
		{"micro", func(t *testing.T, out outputs) {
			if !strings.Contains(out.table, "Section 5.3") {
				t.Fatalf("table looks empty:\n%s", out.table)
			}
		}},
		{"chaos", checkChaos},
		{"resilience", checkResilience},
		// The content of the datastore run is checked by
		// TestDatastoreTableContent.
		{"datastore", func(*testing.T, outputs) {}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "datastore" && testing.Short() {
				t.Skip("two full quick datastore runs")
			}
			seq, par := runExperiment(t, tc.name, 1), runExperiment(t, tc.name, 8)
			if seq.table != par.table {
				t.Errorf("tables differ between -parallel 1 and 8:\n--- seq ---\n%s\n--- par ---\n%s", seq.table, par.table)
			}
			if seq.reports != par.reports {
				t.Error("reports JSON differs between -parallel 1 and 8")
			}
			if seq.csv != par.csv {
				t.Error("reports CSV differs between -parallel 1 and 8")
			}
			if seq.digest != par.digest {
				t.Errorf("trace digests differ between -parallel 1 and 8:\n--- seq ---\n%s\n--- par ---\n%s", seq.digest, par.digest)
			}
			tc.check(t, seq)
		})
	}
}

// checkChaos: every profile row renders, the reports carry the fault
// provenance, and at least one bounded-horizon profile reports a recovery
// time.
func checkChaos(t *testing.T, out outputs) {
	for _, want := range []string{"clean", "abort-storm", "abort-recover", "capacity",
		"net-chaos", "jitter", "mixed", "recover"} {
		if !strings.Contains(out.table, want) {
			t.Errorf("chaos table missing %q:\n%s", want, out.table)
		}
	}
	for _, want := range []string{`"faultSpec"`, `"seed"`, `"faultCounts"`, `"breakerTransitions"`} {
		if !strings.Contains(out.reports, want) {
			t.Errorf("chaos reports missing %s", want)
		}
	}
	if !strings.Contains(out.csv, "faultSpec") || !strings.Contains(out.csv, "recoverCycles") {
		t.Errorf("chaos CSV header missing fault columns:\n%s", strings.SplitN(out.csv, "\n", 2)[0])
	}
}

// checkResilience: the headline must hold — the unprotected server never
// recovers from the pulse, the fully protected one does — and every row's
// outcome counters account for every generated request.
func checkResilience(t *testing.T, out outputs) {
	var reps []Report
	if err := json.Unmarshal([]byte(out.reports), &reps); err != nil {
		t.Fatal(err)
	}
	byConfig := make(map[string]*Report)
	for i := range reps {
		if reps[i].Experiment == "resilience" {
			byConfig[reps[i].Config] = &reps[i]
		}
	}
	for _, want := range []string{"unprotected", "budgets", "admission", "full"} {
		r, ok := byConfig[want]
		if !ok {
			t.Fatalf("no report for config %q (have %d resilience reports)", want, len(byConfig))
		}
		if r.RecoverCycles == nil {
			t.Fatalf("%s: no recover cycles recorded", want)
		}
		resolved := r.Latency.Count + r.Shed + r.GaveUp + r.DeadlineExceeded
		if resolved != r.Arrivals {
			t.Errorf("%s: resolved %d != generated %d (completed %d shed %d gaveup %d dlx %d)",
				want, resolved, r.Arrivals, r.Latency.Count, r.Shed, r.GaveUp, r.DeadlineExceeded)
		}
	}
	if got := *byConfig["unprotected"].RecoverCycles; got != -1 {
		t.Errorf("unprotected recovered at %d, want -1 (collapse must outlive the pulse)", got)
	}
	if got := *byConfig["full"].RecoverCycles; got < 0 {
		t.Errorf("full protection never recovered (recover = %d)", got)
	}
	if byConfig["full"].Shed == 0 {
		t.Errorf("full protection shed nothing — admission/brownout not engaged")
	}
	if len(byConfig["full"].BrownoutTransitions) == 0 {
		t.Errorf("full protection recorded no brownout transitions")
	}
}

// TestParallelFirstErrorWins checks that when several points fail on the
// worker pool, flush reports the first failure in point order — the same
// error a sequential run would have stopped at.
func TestParallelFirstErrorWins(t *testing.T) {
	s := NewSession(nil, true)
	s.Parallel = 8
	p := s.newPlan()
	for i := 0; i < 20; i++ {
		fail := i == 7 || i == 13
		p.raw(fmt.Sprintf("pt%02d", i), func(io.Writer) error {
			if fail {
				return errors.New("boom")
			}
			return nil
		})
	}
	err := p.flush()
	if err == nil || !strings.Contains(err.Error(), "pt07") {
		t.Fatalf("err = %v, want the first failing point pt07", err)
	}
}

// BenchmarkQuickFig5Point measures one end-to-end quick Figure 5
// configuration point: a full VM build plus an NPB kernel run.
func BenchmarkQuickFig5Point(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewSession(io.Discard, true)
		p := s.newPlan()
		dyn := Configs()[4]
		p.kernel("bench point", "bench", dyn.Name, npb.BT, dyn.options(htm.ZEC12()), 4, npb.ClassS, false)
		if err := p.flush(); err != nil {
			b.Fatal(err)
		}
	}
}
