package vm

import (
	"strings"
	"testing"

	"htmgil/internal/htm"
)

// runSrc executes a program and returns its output.
func runSrc(t *testing.T, mode Mode, src string) (*RunResult, *VM) {
	t.Helper()
	opt := DefaultOptions(htm.ZEC12(), mode)
	opt.HeapSlots = 50_000
	opt.MaxCycles = 10_000_000_000
	v := New(opt)
	iseq, err := v.CompileSource(src, "test")
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := v.Run(iseq)
	if err != nil {
		t.Fatalf("run (%v): %v\noutput so far: %s", mode, err, v.Output())
	}
	return res, v
}

func expectOut(t *testing.T, mode Mode, src, want string) {
	t.Helper()
	res, _ := runSrc(t, mode, src)
	if res.Output != want {
		t.Fatalf("mode %v: output = %q, want %q", mode, res.Output, want)
	}
}

var allModes = []Mode{ModeGIL, ModeHTM, ModeFGL, ModeIdeal}

func TestHelloWorld(t *testing.T) {
	for _, m := range allModes {
		expectOut(t, m, `puts "hello, world"`, "hello, world\n")
	}
}

func TestArithmeticAndLocals(t *testing.T) {
	src := `
x = 10
y = 3
puts x + y
puts x - y
puts x * y
puts x / y
puts x % y
puts x < y
puts x >= y
puts(-x)
`
	expectOut(t, ModeGIL, src, "13\n7\n30\n3\n1\nfalse\ntrue\n-10\n")
}

func TestFloatArithmetic(t *testing.T) {
	src := `
a = 1.5
b = 2.25
c = a * b + 0.5
puts c
puts c > 3.8
puts Math.sqrt(16.0)
puts((1.0 / 0.5).to_i)
`
	expectOut(t, ModeGIL, src, "3.875\ntrue\n4.0\n2\n")
}

func TestStringsAndInterpolation(t *testing.T) {
	src := `
name = "world"
s = "hello, #{name}! #{1 + 2}"
puts s
puts s.length
puts s.include?("world")
puts "a,b,c".split(",").join("-")
puts "  pad  ".strip
`
	expectOut(t, ModeGIL, src, "hello, world! 3\n15\ntrue\na-b-c\npad\n")
}

func TestWhileLoopAndConditionals(t *testing.T) {
	src := `
i = 0
total = 0
while i < 10
  if i % 2 == 0
    total += i
  else
    total += 1
  end
  i += 1
end
puts total
`
	expectOut(t, ModeGIL, src, "25\n")
}

func TestPaperWhileBenchmarkSemantics(t *testing.T) {
	// Figure 4 While workload must compute sum(1..n).
	src := `
def workload(numIter)
  x = 0
  i = 1
  while i <= numIter
    x += i
    i += 1
  end
  x
end
puts workload(100)
`
	for _, m := range allModes {
		expectOut(t, m, src, "5050\n")
	}
}

func TestPaperIteratorBenchmarkSemantics(t *testing.T) {
	src := `
def workload(numIter)
  x = 0
  (1..numIter).each do |i|
    x += i
  end
  x
end
puts workload(100)
`
	for _, m := range allModes {
		expectOut(t, m, src, "5050\n")
	}
}

func TestMethodsAndRecursion(t *testing.T) {
	src := `
def fib(n)
  if n < 2
    n
  else
    fib(n - 1) + fib(n - 2)
  end
end
puts fib(15)
`
	expectOut(t, ModeGIL, src, "610\n")
}

func TestClassesIvarsAndAccessors(t *testing.T) {
	src := `
class Point
  attr_accessor :x, :y
  def initialize(x, y)
    @x = x
    @y = y
  end
  def dist2(o)
    dx = @x - o.x
    dy = @y - o.y
    dx * dx + dy * dy
  end
end
a = Point.new(1, 2)
b = Point.new(4, 6)
puts a.dist2(b)
a.x = 10
puts a.x
puts a.class.name
`
	for _, m := range allModes {
		expectOut(t, m, src, "25\n10\nPoint\n")
	}
}

func TestInheritanceAndSuperclassMethods(t *testing.T) {
	src := `
class Animal
  def speak
    "..."
  end
  def describe
    "I say #{speak}"
  end
end
class Dog < Animal
  def speak
    "woof"
  end
end
puts Dog.new.describe
puts Animal.new.describe
`
	expectOut(t, ModeGIL, src, "I say woof\nI say ...\n")
}

func TestArraysAndHashes(t *testing.T) {
	src := `
a = [1, 2, 3]
a << 4
a.push(5)
puts a.length
puts a[0] + a[-1]
puts a.sum
a[10] = 99
puts a.length
puts a[7].nil?

h = {"one" => 1, :two => 2}
h["three"] = 3
puts h.size
puts h["one"] + h[:two] + h["three"]
puts h["missing"].nil?
keys = h.keys
puts keys.length
`
	expectOut(t, ModeGIL, src, "5\n6\n15\n11\ntrue\n3\n6\ntrue\n3\n")
}

func TestHashGrowth(t *testing.T) {
	src := `
h = {}
i = 0
while i < 200
  h[i] = i * 2
  i += 1
end
puts h.size
puts h[77]
puts h[199]
`
	expectOut(t, ModeGIL, src, "200\n154\n398\n")
}

func TestBlocksClosuresAndCaptures(t *testing.T) {
	src := `
total = 0
[1, 2, 3].each do |x|
  total += x * 10
end
puts total
sq = [1, 2, 3].map do |x|
  x * x
end
puts sq.join(",")
3.times do |i|
  total += i
end
puts total
`
	expectOut(t, ModeGIL, src, "60\n1,4,9\n63\n")
}

func TestYieldWithMultipleArgs(t *testing.T) {
	src := `
def pairs
  i = 0
  while i < 3
    yield i, i * i
    i += 1
  end
end
pairs do |a, b|
  puts "#{a}:#{b}"
end
`
	expectOut(t, ModeGIL, src, "0:0\n1:1\n2:4\n")
}

func TestGlobalsAndConstantsAndCvars(t *testing.T) {
	src := `
$counter = 5
LIMIT = 10
class Counter
  @@instances = 0
  def initialize
    @@instances += 1
  end
  def self_count
    @@instances
  end
end
Counter.new
c = Counter.new
puts c.self_count
$counter += LIMIT
puts $counter
`
	expectOut(t, ModeGIL, src, "2\n15\n")
}

func TestThreadsJoinAndResult(t *testing.T) {
	src := `
threads = []
results = Array.new(4, 0)
i = 0
while i < 4
  threads << Thread.new(i) do |me|
    x = 0
    j = 1
    while j <= 1000
      x += j
      j += 1
    end
    results[me] = x + me
  end
  i += 1
end
threads.each do |th|
  th.join
end
puts results.join(",")
`
	want := "500500,500501,500502,500503\n"
	for _, m := range allModes {
		expectOut(t, m, src, want)
	}
}

func TestMutexProtectsSharedCounter(t *testing.T) {
	src := `
m = Mutex.new
counter = 0
threads = []
i = 0
while i < 4
  threads << Thread.new do
    j = 0
    while j < 500
      m.synchronize do
        counter += 1
      end
      j += 1
    end
  end
  i += 1
end
threads.each do |th|
  th.join
end
puts counter
`
	for _, m := range allModes {
		expectOut(t, m, src, "2000\n")
	}
}

func TestUnsynchronizedCounterBehaviour(t *testing.T) {
	// Without a Mutex, `counter += 1` on a captured local is a read-modify-
	// write spanning several bytecodes. Under the GIL with CRuby's original
	// yield points (back-edges and exits only) it is never torn, so the
	// result is exact. Under HTM with the paper's extended yield points a
	// transaction may end between the read and the write — Section 4.2
	// notes exactly this behaviour change for incorrectly synchronized
	// programs — so updates may be lost, but never invented.
	src := `
counter = 0
threads = []
i = 0
while i < 8
  threads << Thread.new do
    j = 0
    while j < 300
      counter += 1
      j += 1
    end
  end
  i += 1
end
threads.each do |th|
  th.join
end
puts counter
`
	expectOut(t, ModeGIL, src, "2400\n")
	res, _ := runSrc(t, ModeHTM, src)
	got := strings.TrimSpace(res.Output)
	n := 0
	for i := 0; i < len(got); i++ {
		n = n*10 + int(got[i]-'0')
	}
	if n <= 0 || n > 2400 {
		t.Fatalf("HTM unsynchronized counter = %d, want (0, 2400]", n)
	}
}

func TestBarrierFromPrelude(t *testing.T) {
	src := `
b = Barrier.new(3)
log = Array.new(3, 0)
phase2 = Array.new(3, 0)
threads = []
i = 0
while i < 3
  threads << Thread.new(i) do |me|
    log[me] = 1
    b.wait
    s = 0
    k = 0
    while k < 3
      s += log[k]
      k += 1
    end
    phase2[me] = s
  end
  i += 1
end
threads.each do |th|
  th.join
end
puts phase2.join(",")
`
	// Every thread must observe all pre-barrier writes: 3,3,3.
	for _, m := range allModes {
		expectOut(t, m, src, "3,3,3\n")
	}
}

func TestGCReclaimsGarbage(t *testing.T) {
	src := `
i = 0
while i < 30000
  s = [i, i + 1, i + 2]
  i += 1
end
puts "done"
`
	opt := DefaultOptions(htm.ZEC12(), ModeGIL)
	opt.HeapSlots = 2_000 // force collections
	v := New(opt)
	iseq, err := v.CompileSource(src, "gc-test")
	if err != nil {
		t.Fatal(err)
	}
	res, err := v.Run(iseq)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Output != "done\n" {
		t.Fatalf("output = %q", res.Output)
	}
	if v.Heap.Stats.GCs == 0 {
		t.Fatalf("no GC ran with a tiny heap")
	}
}

func TestGCUnderHTMAndFGL(t *testing.T) {
	src := `
total = 0
m = Mutex.new
threads = []
i = 0
while i < 4
  threads << Thread.new do
    j = 0
    local = 0
    while j < 3000
      a = [j, j * 2]
      local += a[1]
      j += 1
    end
    m.synchronize do
      total += local
    end
  end
  i += 1
end
threads.each do |th|
  th.join
end
puts total
`
	want := "35988000\n"
	for _, m := range []Mode{ModeHTM, ModeFGL, ModeIdeal} {
		opt := DefaultOptions(htm.ZEC12(), m)
		opt.HeapSlots = 3_000
		v := New(opt)
		iseq, err := v.CompileSource(src, "gc-mt")
		if err != nil {
			t.Fatal(err)
		}
		res, err := v.Run(iseq)
		if err != nil {
			t.Fatalf("mode %v: %v", m, err)
		}
		if res.Output != want {
			t.Fatalf("mode %v: output = %q want %q", m, res.Output, want)
		}
		if v.Heap.Stats.GCs == 0 {
			t.Fatalf("mode %v: no GC with tiny heap", m)
		}
	}
}

func TestRuntimeErrorsSurface(t *testing.T) {
	cases := []string{
		`nosuchmethod(1)`,
		`x = 1 / 0`,
		`y = nil
y.foo`,
	}
	for _, src := range cases {
		opt := DefaultOptions(htm.ZEC12(), ModeGIL)
		v := New(opt)
		iseq, err := v.CompileSource(src, "err")
		if err != nil {
			continue // compile-time failure is fine too
		}
		if _, err := v.Run(iseq); err == nil {
			t.Fatalf("no error for %q", src)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	src := `
total = 0
threads = []
i = 0
while i < 6
  threads << Thread.new do
    j = 0
    while j < 400
      total += j
      j += 1
    end
  end
  i += 1
end
threads.each do |th|
  th.join
end
puts total
`
	for _, m := range []Mode{ModeGIL, ModeHTM} {
		r1, _ := runSrc(t, m, src)
		r2, _ := runSrc(t, m, src)
		if r1.Cycles != r2.Cycles || r1.Output != r2.Output {
			t.Fatalf("mode %v: nondeterministic (%d/%q vs %d/%q)", m, r1.Cycles, r1.Output, r2.Cycles, r2.Output)
		}
	}
}

func TestHTMActuallyCommitsTransactions(t *testing.T) {
	src := `
threads = []
i = 0
while i < 4
  threads << Thread.new do
    x = 0
    j = 0
    while j < 2000
      x += j
      j += 1
    end
  end
  i += 1
end
threads.each do |th|
  th.join
end
puts "ok"
`
	res, _ := runSrc(t, ModeHTM, src)
	if res.Stats.HTM == nil || res.Stats.HTM.Commits == 0 {
		t.Fatalf("no transactions committed: %+v", res.Stats.HTM)
	}
	if strings.TrimSpace(res.Output) != "ok" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestHTMFasterThanGILOnParallelWorkload(t *testing.T) {
	src := `
threads = []
i = 0
while i < 8
  threads << Thread.new do
    x = 0
    j = 0
    while j < 4000
      x += j
      j += 1
    end
  end
  i += 1
end
threads.each do |th|
  th.join
end
`
	rg, _ := runSrc(t, ModeGIL, src)
	rh, _ := runSrc(t, ModeHTM, src)
	speedup := float64(rg.Cycles) / float64(rh.Cycles)
	if speedup < 2.0 {
		t.Fatalf("HTM speedup over GIL = %.2f, want >= 2 (gil=%d htm=%d)", speedup, rg.Cycles, rh.Cycles)
	}
}

func TestPreludeLibrary(t *testing.T) {
	src := `
a = [5, 1, 4, 2, 3]
puts a.sort.join(",")
puts a.reverse.join(",")
puts a.min
puts a.max
puts a.select { |x| x % 2 == 0 }.join(",")
puts 12.gcd(18)
puts a.count
`
	expectOut(t, ModeGIL, src, "1,2,3,4,5\n3,2,4,1,5\n1\n5\n4,2\n6\n5\n")
}

// TestRunResultStatsDetached: the Stats of a RunResult is a copy, not a
// pointer into the VM, so holding the result does not pin the machine and
// later changes to the VM's counters do not show through.
func TestRunResultStatsDetached(t *testing.T) {
	res, v := runSrc(t, ModeHTM, `x = 0
while x < 100
  x += 1
end
puts x`)
	if res.Stats == &v.stats {
		t.Fatal("RunResult.Stats aliases the VM's statistics")
	}
	yields := res.Stats.Yields
	v.stats.Yields += 7
	if res.Stats.Yields != yields {
		t.Fatalf("Yields changed from %d to %d after the run", yields, res.Stats.Yields)
	}
}
