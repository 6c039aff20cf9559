package bench

import (
	"reflect"
	"strings"
	"testing"

	"htmgil/internal/htm"
	"htmgil/internal/npb"
	"htmgil/internal/policy"
	"htmgil/internal/vm"
)

func TestPolicyConfigsMirrorRegistry(t *testing.T) {
	cfgs := PolicyConfigs()
	names := policy.Names()
	if len(cfgs) != len(names) {
		t.Fatalf("len = %d, registry has %d", len(cfgs), len(names))
	}
	for i, n := range names {
		if cfgs[i].Name != n || cfgs[i].Policy != n {
			t.Fatalf("config %d = %+v, want name/policy %q", i, cfgs[i], n)
		}
		if cfgs[i].Mode != vm.ModeHTM {
			t.Fatalf("config %d not plain HTM: %+v", i, cfgs[i])
		}
	}
}

func TestExperimentsListsPolicy(t *testing.T) {
	exps := Experiments()
	if exps[len(exps)-1] != "all" {
		t.Fatalf("last = %q, want all", exps[len(exps)-1])
	}
	found := false
	for _, e := range exps {
		if e == "policy" {
			found = true
		}
	}
	if !found {
		t.Fatalf("policy missing from %v", exps)
	}
	if err := NewSession(nil, true).Run("nosuch"); err == nil ||
		!strings.Contains(err.Error(), "policy") {
		t.Fatalf("unknown-experiment error should list policy: %v", err)
	}
}

// TestPolicyPaperDynamicMatchesFig5HTMDynamic pins the experiment's headline
// guarantee: a paper-dynamic policy point reproduces the fig5 HTM-dynamic
// point bit for bit, even though the policy point always carries a trace
// recorder (tracing must stay a pure observer).
func TestPolicyPaperDynamicMatchesFig5HTMDynamic(t *testing.T) {
	s := NewSession(nil, true)
	p := s.newPlan()
	prof := htm.ZEC12()
	dyn := Configs()[4]
	fig5 := p.kernel("fig5 point", "fig5", dyn.Name, npb.CG, dyn.options(prof), 4, npb.ClassS, false)
	pd := Config{Name: "paper-dynamic", Mode: vm.ModeHTM, Policy: "paper-dynamic"}
	pol := p.kernel("policy point", "policy", pd.Name, npb.CG, pd.options(prof), 4, npb.ClassS, true)
	if err := p.flush(); err != nil {
		t.Fatal(err)
	}
	if fig5.Cycles != pol.Cycles {
		t.Fatalf("diverged: fig5 cycles=%d, policy cycles=%d", fig5.Cycles, pol.Cycles)
	}
	if !reflect.DeepEqual(fig5.st, pol.st) {
		t.Fatalf("stats diverged: fig5 %+v, policy %+v", fig5.st, pol.st)
	}
	if pol.agg == nil {
		t.Fatal("policy point must carry an aggregator")
	}
}

func TestWriteReportsCSV(t *testing.T) {
	s := NewSession(nil, true)
	p := s.newPlan()
	cfg := Config{Name: "fixed-16", Mode: vm.ModeHTM, Policy: "fixed-16"}
	p.kernel("pt", "policy", cfg.Name, npb.CG, cfg.options(htm.ZEC12()), 2, npb.ClassS, true)
	if err := p.flush(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := s.WriteReportsCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want header + 1 row, got %d lines:\n%s", len(lines), sb.String())
	}
	if !strings.HasPrefix(lines[0], "experiment,machine,workload,config,") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "policy,zEC12,cg,fixed-16,2,") {
		t.Fatalf("row = %q", lines[1])
	}
}
