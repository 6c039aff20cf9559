package bench

import (
	"strings"
	"testing"

	"htmgil/internal/htm"
)

func TestConfigsAreThePapersFive(t *testing.T) {
	cfgs := Configs()
	if len(cfgs) != 5 {
		t.Fatalf("len = %d", len(cfgs))
	}
	names := []string{"GIL", "HTM-1", "HTM-16", "HTM-256", "HTM-dynamic"}
	for i, want := range names {
		if cfgs[i].Name != want {
			t.Fatalf("config %d = %q", i, cfgs[i].Name)
		}
	}
	if cfgs[1].Policy != "fixed-1" || cfgs[2].Policy != "fixed-16" || cfgs[3].Policy != "fixed-256" || cfgs[4].Policy != "" {
		t.Fatalf("lengths wrong: %+v", cfgs)
	}
}

func TestFig6aShape(t *testing.T) {
	var sb strings.Builder
	if err := NewSession(&sb, true).Run("fig6a"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// The 24 KB and 20 KB phases must fail, and a later small phase must
	// eventually report high success.
	if !strings.Contains(out, "24          0") {
		t.Fatalf("oversized phase succeeded:\n%s", out)
	}
	var sawHigh bool
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 3 && (f[1] == "8" || f[1] == "4") {
			n := 0
			for i := 0; i < len(f[2]); i++ {
				n = n*10 + int(f[2][i]-'0')
			}
			if n >= 90 {
				sawHigh = true
			}
		}
	}
	if !sawHigh {
		t.Fatalf("success ratio never recovered:\n%s", out)
	}
}

func TestByNameDispatch(t *testing.T) {
	if err := NewSession(nil, true).Run("nosuch"); err == nil {
		t.Fatalf("unknown experiment accepted")
	}
	var sb strings.Builder
	if err := NewSession(&sb, true).Run("fig6a"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Figure 6a") {
		t.Fatalf("missing header")
	}
}

func TestThreadGrids(t *testing.T) {
	z := threadsFor(htm.ZEC12(), false)
	if z[len(z)-1] != 12 || z[0] != 1 {
		t.Fatalf("zEC12 grid = %v", z)
	}
	x := threadsFor(htm.XeonE3(), false)
	if x[len(x)-1] != 8 {
		t.Fatalf("xeon grid = %v", x)
	}
}
