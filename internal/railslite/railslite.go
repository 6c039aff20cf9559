// Package railslite is the paper's Ruby on Rails experiment: a small MVC
// web application in mini-Ruby — regexp routing, a controller querying the
// SQLite-like store, and string-interpolation view rendering — served by
// the WEBrick-style thread-per-request loop. As in the paper, Rails'
// backward-compatibility global request lock is disabled by default (the
// paper disabled it to expose concurrency) but can be enabled for the
// ablation.
package railslite

import (
	"fmt"

	"htmgil/internal/db"
	"htmgil/internal/fault"
	"htmgil/internal/htm"
	"htmgil/internal/netsim"
	"htmgil/internal/rbregexp"
	"htmgil/internal/resilience"
	"htmgil/internal/trace"
	"htmgil/internal/vm"
)

// appSource builds the Rails-like application; withLock wraps request
// processing in the global Rack lock.
func appSource(withLock bool) string {
	handler := `
      rows = $db.execute("SELECT * FROM books")
      items = ""
      rows.each do |row|
        items = items + "<li>" + row[1] + " by " + row[2] + "</li>"
      end
      body = "<html><head><title>Books</title></head><body><h1>Listing books</h1><ul>" + items + "</ul></body></html>"
`
	lockPre, lockPost := "", ""
	if withLock {
		lockPre = "$rack_lock.lock\n"
		lockPost = "$rack_lock.unlock\n"
	}
	return `
$db = SQLite3.new
$db.execute("CREATE TABLE books (id, title, author)")
seed = 0
while seed < 24
  $db.execute("INSERT INTO books VALUES (#{seed}, 'The Art of Book #{seed}', 'Author #{seed % 7}')")
  seed += 1
end
$rack_lock = Mutex.new
$reqline = Regexp.new("^(GET|POST) ([^ ]+) HTTP")
$route_books = Regexp.new("^/books")
server = TCPServer.new(80)
while true
  sock = server.accept
  Thread.new(sock) do |s|
    req = s.read_request
    m = $reqline.match(req)
    path = "/"
    unless m.nil?
      path = m[2]
    end
    body = "<html><body>Routing Error</body></html>"
    status = "404 Not Found"
    if $route_books.match?(path)
      status = "200 OK"
` + lockPre + handler + lockPost + `
    end
    resp = "HTTP/1.1 " + status + "\r\nContent-Type: text/html; charset=utf-8\r\nContent-Length: #{body.length}\r\nX-Runtime: 0.003\r\n\r\n" + body
    s.write(resp)
    s.close
  end
end
`
}

// poolAppSource is the Rails-like application served by a bounded worker
// pool instead of thread-per-request: workers Ruby threads (the main thread
// serves as one) loop accepting and handling sequentially, so open-loop
// overload queues in the listener backlog rather than spawning unbounded
// Ruby threads against the VM's 64-context cap. Request handling mirrors
// appSource.
func poolAppSource(withLock bool, workers int) string {
	if workers < 2 {
		workers = 2
	}
	handler := `
    rows = $db.execute("SELECT * FROM books")
    items = ""
    rows.each do |row|
      items = items + "<li>" + row[1] + " by " + row[2] + "</li>"
    end
    body = "<html><head><title>Books</title></head><body><h1>Listing books</h1><ul>" + items + "</ul></body></html>"
`
	lockPre, lockPost := "", ""
	if withLock {
		lockPre = "$rack_lock.lock\n"
		lockPost = "$rack_lock.unlock\n"
	}
	return `
$db = SQLite3.new
$db.execute("CREATE TABLE books (id, title, author)")
seed = 0
while seed < 24
  $db.execute("INSERT INTO books VALUES (#{seed}, 'The Art of Book #{seed}', 'Author #{seed % 7}')")
  seed += 1
end
$rack_lock = Mutex.new
$reqline = Regexp.new("^(GET|POST) ([^ ]+) HTTP")
$route_books = Regexp.new("^/books")

def handle_conn(s)
  req = s.read_request
  unless req.nil?
    m = $reqline.match(req)
    path = "/"
    unless m.nil?
      path = m[2]
    end
    body = "<html><body>Routing Error</body></html>"
    status = "404 Not Found"
    if $route_books.match?(path)
      status = "200 OK"
` + lockPre + handler + lockPost + `
    end
    resp = "HTTP/1.1 " + status + "\r\nContent-Type: text/html; charset=utf-8\r\nContent-Length: #{body.length}\r\nX-Runtime: 0.003\r\n\r\n" + body
    s.write(resp)
  end
  s.close
end

server = TCPServer.new(80)
w = 1
while w < ` + fmt.Sprint(workers) + `
  Thread.new do
    while true
      handle_conn(server.accept)
    end
  end
  w += 1
end
while true
  handle_conn(server.accept)
end
`
}

// Request fetches the book list, as the paper's Rails application did.
const Request = "GET /books HTTP/1.1\r\nHost: sim.example\r\nUser-Agent: loadgen/1.0\r\nAccept: text/html\r\n\r\n"

// Config parameterizes a run.
type Config struct {
	Prof       *htm.Profile
	Mode       vm.Mode
	Policy     string // contention policy name ("" = paper-dynamic)
	Clients    int
	Requests   int
	GlobalLock bool // Rails' compatibility lock (paper: disabled)
	// Workers, when > 0, serves with the bounded worker-pool source instead
	// of thread-per-request (see poolAppSource).
	Workers int
	// Open, when non-nil, replaces the closed-loop clients with the
	// open-loop generator: Run fills in its network plumbing (Net, Eng,
	// Port, OnDone), starts it, and returns it in Result.Open.
	Open *netsim.OpenLoadGen
	// Trace, when non-nil, is attached to the run's VM (vm.Options.Trace)
	// so callers can observe the server's transaction events.
	Trace *trace.Recorder
	// Faults arms the deterministic fault-injection harness for the run.
	Faults *fault.Spec
	// Breaker / Watchdog enable the graceful-degradation machinery.
	Breaker  bool
	Watchdog bool
	// Resilience arms request-level protection on the server (admission
	// control, brownout, deadlines); see resilience.Config.
	Resilience *resilience.Config
}

// Result mirrors webrick.Result.
type Result struct {
	Clients    int
	Completed  int
	Cycles     int64
	Throughput float64
	AbortRatio float64
	Stats      *vm.Stats
	// Open is the finished open-loop generator when the run was driven
	// open-loop; nil for closed-loop runs.
	Open *netsim.OpenLoadGen
	// Res is the server-side resilience state when Config.Resilience was set.
	Res *resilience.Server
}

// Run executes the Rails-like benchmark.
func Run(cfg Config) (*Result, error) {
	if cfg.Requests == 0 {
		cfg.Requests = 200
	}
	opt := vm.DefaultOptions(cfg.Prof, cfg.Mode)
	opt.Policy = cfg.Policy
	opt.Trace = cfg.Trace
	opt.Faults = cfg.Faults
	opt.Breaker = cfg.Breaker
	opt.Watchdog = cfg.Watchdog
	var rs *resilience.Server
	if cfg.Resilience != nil && cfg.Resilience.Enabled() {
		rs = resilience.NewServer(*cfg.Resilience)
		if rs.Deadlines != nil {
			opt.Deadlines = rs.Deadlines
			opt.DeadlineSlack = cfg.Resilience.DeadlineSlack
		}
	}
	machine := vm.New(opt)
	net := netsim.NewNetwork(machine.Engine)
	// machine.Opt.Trace (not cfg.Trace): the VM may have created a
	// recorder for the watchdog.
	net.Tracer = machine.Opt.Trace
	net.Faults = machine.Faults
	if rs != nil {
		rs.Tracer = machine.Opt.Trace
		net.Res = rs
	}
	netsim.Install(machine, net)
	rbregexp.Install(machine)
	rbregexp.InstallStringMethods(machine)
	db.Install(machine)

	src := appSource(cfg.GlobalLock)
	if cfg.Workers > 0 {
		src = poolAppSource(cfg.GlobalLock, cfg.Workers)
	}
	iseq, err := machine.CompileSource(src, "railslite")
	if err != nil {
		return nil, fmt.Errorf("railslite: %w", err)
	}

	if cfg.Open != nil {
		gen := cfg.Open
		gen.Net = net
		gen.Eng = machine.Engine
		gen.Port = 80
		gen.OnDone = machine.Engine.Stop
		gen.Start()
		res, err := machine.Run(iseq)
		if err != nil {
			return nil, fmt.Errorf("railslite run: %w", err)
		}
		if gen.Resolved() < gen.Generated {
			return nil, fmt.Errorf("railslite: only %d/%d open-loop requests resolved", gen.Resolved(), gen.Generated)
		}
		return &Result{
			Clients:    gen.Sessions,
			Completed:  gen.Completed,
			Cycles:     res.Cycles,
			Throughput: gen.Throughput(),
			AbortRatio: res.Stats.AbortRatio(),
			Stats:      res.Stats,
			Open:       gen,
			Res:        rs,
		}, nil
	}

	gen := &netsim.LoadGen{
		Net:       net,
		Eng:       machine.Engine,
		Port:      80,
		Request:   Request,
		ThinkTime: 10_000,
		Target:    cfg.Requests,
		OnDone:    machine.Engine.Stop,
	}
	gen.Start(cfg.Clients)
	res, err := machine.Run(iseq)
	if err != nil {
		return nil, fmt.Errorf("railslite run: %w", err)
	}
	if gen.Completed < cfg.Requests {
		return nil, fmt.Errorf("railslite: only %d/%d requests completed", gen.Completed, cfg.Requests)
	}
	return &Result{
		Clients:    cfg.Clients,
		Completed:  gen.Completed,
		Cycles:     res.Cycles,
		Throughput: gen.Throughput(),
		AbortRatio: res.Stats.AbortRatio(),
		Stats:      res.Stats,
		Res:        rs,
	}, nil
}
