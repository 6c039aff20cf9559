package bench

import (
	"encoding/json"
	"strings"
	"testing"

	"htmgil/internal/htm"
	"htmgil/internal/npb"
)

// runKernelPoint runs one kernel configuration point through the plan
// machinery, as the experiments do, and returns its result.
func runKernelPoint(t *testing.T, s *Session, exp string, b npb.Bench, prof *htm.Profile, cfg Config, threads int, c npb.Class) *point {
	t.Helper()
	p := s.newPlan()
	r := p.kernel("test point", exp, cfg.Name, b, cfg.options(prof), threads, c, false)
	if err := p.flush(); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSessionReports runs one small kernel point per configuration and
// checks that the Session records a coherent Report for each.
func TestSessionReports(t *testing.T) {
	var sb strings.Builder
	s := NewSession(&sb, true)
	for _, cfg := range []Config{Configs()[0], Configs()[4]} {
		runKernelPoint(t, s, "test", npb.While, htm.ZEC12(), cfg, 2, npb.ClassTest)
	}
	if len(s.Reports) != 2 {
		t.Fatalf("reports = %d, want 2", len(s.Reports))
	}
	gil, dyn := s.Reports[0], s.Reports[1]
	if gil.Config != "GIL" || dyn.Config != "HTM-dynamic" {
		t.Fatalf("configs = %q, %q", gil.Config, dyn.Config)
	}
	if gil.Machine != "zEC12" || gil.Workload != "while" || gil.Threads != 2 {
		t.Fatalf("identity wrong: %+v", gil)
	}
	if gil.Cycles <= 0 || dyn.Cycles <= 0 {
		t.Fatalf("cycles missing: %d, %d", gil.Cycles, dyn.Cycles)
	}
	if gil.Begins != 0 {
		t.Fatalf("GIL run reported transactions: %+v", gil)
	}
	if dyn.Begins == 0 || dyn.Commits == 0 {
		t.Fatalf("HTM run reported no transactions: %+v", dyn)
	}
	if dyn.Commits+dyn.Aborts != dyn.Begins {
		t.Fatalf("tx accounting: %d begin != %d commit + %d abort", dyn.Begins, dyn.Commits, dyn.Aborts)
	}
}

// TestSessionTraceSummary verifies that TraceSummary attaches an aggregator
// whose attribution lands in the Report and the printed digest.
func TestSessionTraceSummary(t *testing.T) {
	var sb strings.Builder
	s := NewSession(&sb, true)
	s.TraceSummary = true
	r := runKernelPoint(t, s, "test", npb.While, htm.ZEC12(), Configs()[4], 4, npb.ClassTest)
	rep := s.Reports[len(s.Reports)-1]
	// The aggregator watched the same run that produced Stats; the counts
	// must agree exactly.
	if rep.Begins != r.st.HTM.Begins || rep.Aborts != r.st.HTM.Aborts {
		t.Fatalf("report %d/%d vs stats %d/%d",
			rep.Begins, rep.Aborts, r.st.HTM.Begins, r.st.HTM.Aborts)
	}
	if rep.Aborts > 0 && len(rep.TopAbortPCs) == 0 {
		t.Fatalf("aborts happened but no PC attribution: %+v", rep)
	}
	var dig strings.Builder
	s.WriteTraceSummaries(&dig)
	if !strings.Contains(dig.String(), "test zEC12/while HTM-dynamic threads=4") {
		t.Fatalf("digest missing point header:\n%s", dig.String())
	}
}

// TestWriteReportsJSON round-trips the report list through its JSON form.
func TestWriteReportsJSON(t *testing.T) {
	var sb strings.Builder
	s := NewSession(&sb, true)
	runKernelPoint(t, s, "test", npb.Iterator, htm.XeonE3(), Configs()[1], 2, npb.ClassTest)
	var out strings.Builder
	if err := s.WriteReports(&out); err != nil {
		t.Fatal(err)
	}
	var back []Report
	if err := json.Unmarshal([]byte(out.String()), &back); err != nil {
		t.Fatalf("reports are not valid JSON: %v\n%s", err, out.String())
	}
	if len(back) != 1 || back[0].Experiment != "test" || back[0].Machine != "XeonE3-1275v3" {
		t.Fatalf("round trip lost data: %+v", back)
	}
}
