package bench

import (
	"bytes"
	"strings"
	"testing"

	"htmgil/internal/htm"
	"htmgil/internal/occ"
	"htmgil/internal/vm"
)

func TestHybridConfigs(t *testing.T) {
	cfgs := hybridConfigs()
	if len(cfgs) != 5 {
		t.Fatalf("configs = %d, want 5", len(cfgs))
	}
	byName := map[string]hybridConfig{}
	for _, c := range cfgs {
		byName[c.Name] = c
	}
	if byName["GIL"].Mode != vm.ModeGIL {
		t.Errorf("GIL config mode = %v", byName["GIL"].Mode)
	}
	for _, name := range []string{"paper-dynamic", "occ-adaptive", "occ-adpt-sbx", "occ-first"} {
		if byName[name].Mode != vm.ModeHTM {
			t.Errorf("%s: mode = %v, want HTM", name, byName[name].Mode)
		}
	}
	if byName["occ-adpt-sbx"].Policy != "occ-adaptive" || !byName["occ-adpt-sbx"].sandbox {
		t.Errorf("occ-adpt-sbx must be occ-adaptive with the sandbox on")
	}
	if byName["occ-adaptive"].sandbox || byName["occ-first"].sandbox {
		t.Errorf("only occ-adpt-sbx carries the sandbox flag")
	}
}

func TestHybridProfileSandbox(t *testing.T) {
	if p := hybridProfile(htm.ZEC12, true); !p.OCCSandbox {
		t.Fatal("sandbox flag not applied")
	}
	if p := hybridProfile(htm.ZEC12, false); p.OCCSandbox {
		t.Fatal("sandbox flag set without asking")
	}
}

func TestHybridAttributionLine(t *testing.T) {
	var buf bytes.Buffer
	st := &vm.Stats{
		HTM:          &htm.Stats{Begins: 10, Commits: 8, Aborts: 2},
		OCC:          &occ.Stats{Begins: 5, Commits: 4, Aborts: 1, ValidationFailures: 1},
		GILFallbacks: 3,
	}
	if err := hybridAttribution(&buf, "occ-adaptive", st); err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	for _, want := range []string{"occ-adaptive", "10", "8", "2", "5", "4", "1", "3"} {
		if !strings.Contains(line, want) {
			t.Errorf("attribution line %q missing %q", line, want)
		}
	}
	// Tiers the runtime never used render as zeros, not a crash.
	buf.Reset()
	if err := hybridAttribution(&buf, "GIL", &vm.Stats{GILFallbacks: 7}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "7") {
		t.Errorf("GIL-only line = %q", buf.String())
	}
}
