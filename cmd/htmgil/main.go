// Command htmgil runs a mini-Ruby program on the simulated interpreter.
//
//	htmgil -mode htm -machine zec12 script.rb
//	htmgil -mode gil -e 'puts 1 + 2'
//	htmgil -mode htm -policy backoff script.rb
//	htmgil -mode htm -policy fixed-16 script.rb
//
// -policy selects the contention-management policy driving lock elision
// (paper-dynamic, fixed-N, backoff, lazy-subscription, occ-adaptive);
// "-policy list" prints them with descriptions. A fixed transaction length
// is "-policy fixed-N": the paper's HTM-1/16/256 are fixed-1, fixed-16 and
// fixed-256, and any N >= 1 is accepted.
//
// After the program finishes it can print the execution statistics the
// paper's evaluation is built from (-stats), and -trace out.jsonl streams
// every transaction/GIL/GC event of the run as JSON lines.
//
// -faults arms the deterministic fault-injection harness, e.g.
// "-faults spurious=30000,timerjitter=0.3,until=20000000", and -breaker
// enables the elision circuit breaker (with the livelock watchdog riding
// along when tracing is active). Injected faults and breaker transitions
// appear in -stats and in the -trace stream.
//
// The SQLite3-flavored datastore binding is always installed, so scripts
// can `$db = SQLite3.new` and issue CREATE KEYSPACE / UPDATE ... WHERE /
// range SELECT statements. -shards N splits keyspace fallbacks across N
// per-shard locks (htm mode only); per-shard occupancy shows up in -stats.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"htmgil"
	"htmgil/internal/compile"
)

func main() {
	mode := flag.String("mode", "htm", "execution mode: gil, htm, fgl, ideal")
	machine := flag.String("machine", "zec12", "machine profile: zec12, xeon")
	expr := flag.String("e", "", "program text (instead of a file)")
	policyName := flag.String("policy", "", "contention-management policy (\"\" = paper default, \"list\" = show choices)")
	stats := flag.Bool("stats", false, "print execution statistics")
	dump := flag.Bool("dump", false, "disassemble the program instead of running it")
	traceOut := flag.String("trace", "", "write structured trace events to this JSONL file")
	faultSpec := flag.String("faults", "", "fault-injection spec, e.g. spurious=30000,connreset=0.02,until=20000000")
	breaker := flag.Bool("breaker", false, "enable the elision circuit breaker (+ degradation watchdog)")
	shards := flag.Int("shards", 0, "sharded-GIL mode: one fallback lock per keyspace shard (0 = single GIL; htm mode only)")
	flag.Parse()

	if *policyName == "list" {
		for _, line := range htmgil.DescribePolicies() {
			fmt.Println(line)
		}
		return
	}
	if !htmgil.ValidPolicy(*policyName) {
		fmt.Fprintf(os.Stderr, "unknown policy %q; valid policies:\n", *policyName)
		for _, line := range htmgil.DescribePolicies() {
			fmt.Fprintln(os.Stderr, " ", line)
		}
		os.Exit(2)
	}

	var prof *htmgil.Profile
	switch *machine {
	case "zec12":
		prof = htmgil.ZEC12()
	case "xeon":
		prof = htmgil.XeonE3()
	default:
		fmt.Fprintf(os.Stderr, "unknown machine %q\n", *machine)
		os.Exit(2)
	}
	var m htmgil.Mode
	switch *mode {
	case "gil":
		m = htmgil.ModeGIL
	case "htm":
		m = htmgil.ModeHTM
	case "fgl":
		m = htmgil.ModeFGL
	case "ideal":
		m = htmgil.ModeIdeal
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}

	src := *expr
	if src == "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: htmgil [-mode M] [-machine P] [-stats] script.rb | -e 'code'")
			os.Exit(2)
		}
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		src = string(data)
	}

	opt := htmgil.DefaultOptions(prof, m)
	opt.Policy = *policyName
	opt.Shards = *shards
	opt.Out = os.Stdout
	if *faultSpec != "" {
		spec, err := htmgil.ParseFaultSpec(*faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		opt.Faults = spec
	}
	if *breaker {
		opt.Breaker = true
		opt.Watchdog = true
	}
	var traceSink *htmgil.TraceJSONL
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		traceSink = htmgil.NewTraceJSONL(f)
		opt.Trace = htmgil.NewTraceRecorder(traceSink)
	}
	vmm := htmgil.NewMachineOpts(opt)
	vmm.InstallDatastore()
	if *dump {
		iseq, err := vmm.VM.CompileSource(src, "main")
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Print(compile.Disassemble(iseq, vmm.VM.Syms))
		return
	}
	res, err := vmm.RunSource(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	if traceSink != nil {
		if werr := traceSink.Err(); werr != nil {
			fmt.Fprintln(os.Stderr, "trace:", werr)
			os.Exit(1)
		}
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "\n-- %s on %s --\n", m, prof.Name)
		fmt.Fprintf(os.Stderr, "virtual cycles: %d\n", res.Cycles)
		fmt.Fprintf(os.Stderr, "bytecodes:      %d\n", res.Stats.Bytecodes)
		fmt.Fprintf(os.Stderr, "threads:        %d\n", res.Stats.Threads)
		fmt.Fprintf(os.Stderr, "gc runs:        %d\n", res.Stats.GCs)
		if res.Stats.HTM != nil {
			fmt.Fprintf(os.Stderr, "transactions:   %d begun, %d committed, %.2f%% aborted\n",
				res.Stats.HTM.Begins, res.Stats.HTM.Commits, res.Stats.AbortRatio()*100)
			var regions []string
			for r := range res.Stats.ConflictRegions {
				regions = append(regions, r)
			}
			sort.Strings(regions)
			for _, r := range regions {
				fmt.Fprintf(os.Stderr, "  conflicts at %-14s %d\n", r, res.Stats.ConflictRegions[r])
			}
		}
		if len(res.Stats.ShardGIL) > 0 {
			fmt.Fprintf(os.Stderr, "shard GILs:     root %d acquisitions / %d hold cycles\n",
				res.Stats.RootGIL.Acquisitions, res.Stats.RootGIL.HoldCycles)
			for i, sg := range res.Stats.ShardGIL {
				fmt.Fprintf(os.Stderr, "  shard %-2d      %d acquisitions / %d hold cycles / %d fallbacks\n",
					i, sg.Acquisitions, sg.HoldCycles, res.Stats.ShardFallbacks[i])
			}
			fmt.Fprintf(os.Stderr, "  cross-shard leaks: %d\n", res.Stats.CrossShardLeaks)
		}
		if res.Stats.OCC != nil {
			fmt.Fprintf(os.Stderr, "sw transactions: %d begun, %d committed, %d aborted (%d validation failures)\n",
				res.Stats.OCC.Begins, res.Stats.OCC.Commits, res.Stats.OCC.Aborts, res.Stats.OCC.ValidationFailures)
		}
		if len(res.Stats.FaultCounts) > 0 {
			var chans []string
			for ch := range res.Stats.FaultCounts {
				chans = append(chans, ch)
			}
			sort.Strings(chans)
			fmt.Fprintf(os.Stderr, "injected faults:")
			for _, ch := range chans {
				fmt.Fprintf(os.Stderr, " %s=%d", ch, res.Stats.FaultCounts[ch])
			}
			fmt.Fprintln(os.Stderr)
		}
		if len(res.Stats.BreakerTransitions) > 0 {
			fmt.Fprintf(os.Stderr, "breaker (%d trips):", res.Stats.BreakerOpens)
			for _, tr := range res.Stats.BreakerTransitions {
				fmt.Fprintf(os.Stderr, " t=%d %s", tr.T, tr.State)
			}
			fmt.Fprintln(os.Stderr)
		}
		if len(res.Stats.Degradations) > 0 {
			var reasons []string
			for r := range res.Stats.Degradations {
				reasons = append(reasons, r)
			}
			sort.Strings(reasons)
			fmt.Fprintf(os.Stderr, "degradations:")
			for _, r := range reasons {
				fmt.Fprintf(os.Stderr, " %s=%d", r, res.Stats.Degradations[r])
			}
			fmt.Fprintln(os.Stderr)
		}
	}
}
