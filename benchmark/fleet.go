package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/ghost-installer/gia/internal/obs"
	"github.com/ghost-installer/gia/internal/serve"
)

// The fleet workload's traffic is the committed serve/loadtest run's
// (`gia-serve -loadtest -rate 1500 -churn 4 -attack-every 7`, EXPERIMENTS.md):
// every churnEvery-th op reclaims its device and creates a fresh one
// (25% of ops), every attackEvery-th other op attacks it (~10.7%), and the
// rest install a fresh package on it (~64.3%). Phase A is an open loop at
// fleetRate ops/s; phase B is a closed loop, one op in flight per
// connection.
const (
	fleetRate   = 1500
	fleetConns  = 2
	churnEvery  = 4
	attackEvery = 7
	phaseAShare = 0.5 // of the window; phase B takes the rest
)

// A traced daemon answers every request with handlerHeader: the client's
// requestHeader id, the handler's wall-clock start (Unix ns) and its
// duration (ns), space-separated.
const (
	requestHeader = "X-Request-Id"
	handlerHeader = "X-Handler-Span"
)

// fleetd runs the daemon side, in a process of its own so the load
// generator never shares its Go scheduler: serve.NewFleet with the default
// Config (seed and registry only) behind serve.NewHandler, timed by
// timeHandler when cfg traces, plus GET /bench/usage for the daemon's own
// resource use. It prints its address as the first line of stdout and
// serves until stdin closes.
func fleetd(cfg config) error {
	reg := obs.NewRegistry()
	fleet := serve.NewFleet(serve.Config{Seed: cfg.seed, Registry: reg})
	defer fleet.Close()
	h := serve.NewHandler(fleet, reg)
	if cfg.trace {
		h = timeHandler(h)
	}
	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.HandleFunc("GET /bench/usage", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(readUsage())
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	fmt.Printf("listening %s\n", ln.Addr())
	// The parent closes stdin to stop the daemon, and so does its exit.
	_, _ = io.Copy(io.Discard, os.Stdin)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// bufferedResponse holds a response until the handler returns, so the
// handler span covers encoding too and can still travel in a header.
type bufferedResponse struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (b *bufferedResponse) Header() http.Header         { return b.header }
func (b *bufferedResponse) Write(p []byte) (int, error) { return b.body.Write(p) }
func (b *bufferedResponse) WriteHeader(status int)      { b.status = status }

// timeHandler is the traced daemon's middleware: it times next and
// returns the span in handlerHeader.
func timeHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		buf := &bufferedResponse{header: http.Header{}, status: http.StatusOK}
		next.ServeHTTP(buf, r)
		d := time.Since(start)
		for k, v := range buf.header {
			w.Header()[k] = v
		}
		w.Header().Set(handlerHeader, fmt.Sprintf("%s %d %d", r.Header.Get(requestHeader), start.UnixNano(), d.Nanoseconds()))
		w.WriteHeader(buf.status)
		_, _ = w.Write(buf.body.Bytes())
	})
}

// daemon is a running fleetd child.
type daemon struct {
	cmd     *exec.Cmd
	stdin   io.Closer
	drained chan struct{} // closed once the child's stdout hits EOF
	base    string
	ctl     *http.Client
}

func startDaemon(cfg config, traced bool) (*daemon, error) {
	cfg.trace = traced
	cmd, err := roleCmd(roleFleetd, cfg)
	if err != nil {
		return nil, err
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	d := &daemon{cmd: cmd, stdin: stdin, drained: make(chan struct{}), ctl: &http.Client{Timeout: 30 * time.Second}}
	first := make(chan string, 1)
	go func() {
		defer close(d.drained)
		r := bufio.NewReader(stdout)
		line, _ := r.ReadString('\n')
		first <- line
		_, _ = io.Copy(io.Discard, r)
	}()
	select {
	case line := <-first:
		addr, ok := strings.CutPrefix(strings.TrimSpace(line), "listening ")
		if !ok {
			// The daemon's exit status adds nothing to what it printed.
			_ = d.stop()
			return nil, fmt.Errorf("daemon did not start: %q", line)
		}
		d.base = "http://" + addr
		return d, nil
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		_ = d.stop() // killed: its exit status is known
		return nil, errors.New("daemon did not start within 30s")
	}
}

// stop closes the daemon's stdin and waits for it to drain and exit.
func (d *daemon) stop() error {
	d.stdin.Close()
	<-d.drained
	return d.cmd.Wait()
}

func (d *daemon) get(path string, out any) error {
	resp, err := d.ctl.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	if s, ok := out.(*string); ok {
		b, err := io.ReadAll(resp.Body)
		*s = string(b)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (d *daemon) usage() (usage, error) {
	var u usage
	err := d.get("/bench/usage", &u)
	return u, err
}

// arenaCounters scrapes the arena.* totals from the daemon's GET /metrics.
func (d *daemon) arenaCounters() (hits, misses, resets, resetNs int64, err error) {
	var text string
	if err := d.get("/metrics", &text); err != nil {
		return 0, 0, 0, 0, err
	}
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		switch f[0] {
		case "arena.hits":
			hits, _ = strconv.ParseInt(f[1], 10, 64)
		case "arena.misses":
			misses, _ = strconv.ParseInt(f[1], 10, 64)
		case "arena.reset_ns":
			for _, kv := range f[1:] {
				if v, ok := strings.CutPrefix(kv, "count="); ok {
					resets, _ = strconv.ParseInt(v, 10, 64)
				} else if v, ok := strings.CutPrefix(kv, "sum="); ok {
					resetNs, _ = strconv.ParseInt(v, 10, 64)
				}
			}
		}
	}
	return hits, misses, resets, resetNs, nil
}

type opKind int

const (
	opInstall opKind = iota
	opAttack
	opChurn
)

var opNames = [...]string{"install", "attack", "churn"}

// kindOf is the op mix: arrival n (from 1) is a churn every churnEvery,
// else an attack every attackEvery, else an install.
func kindOf(n int) opKind {
	switch {
	case n%churnEvery == 0:
		return opChurn
	case n%attackEvery == 0:
		return opAttack
	default:
		return opInstall
	}
}

// lcg is the deterministic device-pick sequence.
type lcg uint64

func (g *lcg) next(n int) int {
	*g = *g*6364136223846793005 + 1442695040888963407
	return int(uint64(*g)>>33) % n
}

var (
	spOp      = [...]int{spanName("fleet.install"), spanName("fleet.attack"), spanName("fleet.churn")}
	spHTTP    = spanName("http.request")
	spHandler = spanName("serve.handler")
	spTx      = spanName("serve.tx")
)

// request is one traced HTTP request: round trip, the daemon's handler
// time and the transaction's own wall time (ns; tx 0 for lifecycle calls).
type request struct{ rtt, handler, tx int64 }

// client is one keep-alive connection to the daemon. Connection c owns
// the device slots ≡ c (mod fleetConns), so no two connections ever race
// on one device.
type client struct {
	hc       *http.Client
	base     string
	deadline time.Time // no request is sent after it, so a hung daemon cannot stall the run
	lane     *lane     // nil when untraced
	requests []request
	ops      [len(opNames)][]int64 // traced: op latency (ns) by kind
	bad      []string              // traced: requests whose spans do not nest
}

func newClients(cfg config, base string, traced bool) []*client {
	cs := make([]*client, fleetConns)
	for i := range cs {
		cs[i] = &client{
			hc: &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{
				MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
			}},
			base:     base,
			deadline: time.Now().Add(cfg.window + time.Minute),
		}
		if traced {
			cs[i].lane = newLane(i + 1)
		}
	}
	return cs
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call sends one request and decodes a want-status reply into out. Traced,
// it records the request span, the daemon's handler span and the tx span.
func (c *client) call(method, path string, want int, parent, req uint64, out any) error {
	if time.Now().After(c.deadline) {
		return fmt.Errorf("%s %s: not sent, the run is past its deadline", method, path)
	}
	hreq, err := http.NewRequest(method, c.base+path, nil)
	if err != nil {
		return err
	}
	var id string
	if c.lane != nil {
		id = strconv.FormatUint(req, 10)
		hreq.Header.Set(requestHeader, id)
	}
	sp := c.lane.begin(spHTTP, parent, req)
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rtt := sp.end()
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if c.lane != nil {
		c.traceRequest(sp, rtt, resp.Header.Get(handlerHeader), id, out)
	}
	return nil
}

// traceRequest books the daemon's side of one request from its header.
func (c *client) traceRequest(sp openSpan, rtt int64, hdr, id string, out any) {
	f := strings.Fields(hdr)
	var start, handler int64
	if len(f) == 3 {
		start, _ = strconv.ParseInt(f[1], 10, 64)
		handler, _ = strconv.ParseInt(f[2], 10, 64)
	}
	var tx int64
	switch o := out.(type) {
	case *serve.InstallResult:
		tx = o.WallNS
	case *serve.AttackResult:
		tx = o.WallNS
	}
	// rtt = net + dispatch + tx only holds if each part nests in the next.
	if len(f) != 3 || f[0] != id || handler <= 0 || handler > rtt || tx < 0 || tx > handler {
		c.bad = append(c.bad, fmt.Sprintf("req %s: header %q, rtt %d, tx %d", id, hdr, rtt, tx))
	}
	h := span{name: int32(spHandler), id: c.lane.next(), parent: sp.id, req: sp.req}
	h.start = start - epoch.UnixNano()
	h.end = h.start + handler
	c.lane.record(h)
	if tx > 0 {
		// Only the transaction's duration is known; its span is placed at
		// the handler's start.
		c.lane.record(span{name: int32(spTx), id: c.lane.next(), parent: h.id, req: sp.req, start: h.start, end: h.start + tx})
	}
	c.requests = append(c.requests, request{rtt: rtt, handler: handler, tx: tx})
}

// op performs one op on the device in slots[slot].
func (c *client) op(kind opKind, slots []string, slot int) error {
	req := c.lane.next()
	root := c.lane.begin(spOp[kind], 0, req)
	var err error
	switch kind {
	case opInstall:
		var out serve.InstallResult
		err = c.call("POST", "/devices/"+slots[slot]+"/install", http.StatusOK, root.id, req, &out)
		if err == nil && (!out.Clean || out.Err != "") {
			err = fmt.Errorf("install on %s not clean: %+v", slots[slot], out)
		}
	case opAttack:
		var out serve.AttackResult
		err = c.call("POST", "/devices/"+slots[slot]+"/attack", http.StatusOK, root.id, req, &out)
		if err == nil && (!out.Hijacked || out.Err != "") {
			err = fmt.Errorf("attack on %s not hijacked: %+v", slots[slot], out)
		}
	case opChurn:
		var gone map[string]string
		err = c.call("DELETE", "/devices/"+slots[slot], http.StatusOK, root.id, req, &gone)
		if err == nil {
			err = c.create(slots, slot, root.id, req)
		}
	}
	if d := root.end(); c.lane != nil {
		c.ops[kind] = append(c.ops[kind], d)
	}
	return err
}

func (c *client) create(slots []string, slot int, parent, req uint64) error {
	var info serve.DeviceInfo
	if err := c.call("POST", "/devices", http.StatusCreated, parent, req, &info); err != nil {
		return err
	}
	slots[slot] = info.ID
	return nil
}

// bootFleet starts a daemon and creates devices on it, each connection
// creating the slots it owns.
func bootFleet(cfg config, traced bool) (*daemon, []*client, []string, error) {
	d, err := startDaemon(cfg, traced)
	if err != nil {
		return nil, nil, nil, err
	}
	clients := newClients(cfg, d.base, traced)
	slots := make([]string, cfg.devices)
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := i; s < len(slots) && errs[i] == nil; s += len(clients) {
				errs[i] = c.create(slots, s, 0, c.lane.next())
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, nil, nil, errors.Join(fmt.Errorf("boot fleet: %w", err), stopFleet(d, clients))
	}
	return d, clients, slots, nil
}

func stopFleet(d *daemon, clients []*client) error {
	for _, c := range clients {
		c.close()
	}
	return d.stop()
}

// phaseStats is what one load phase did. Phase A also keeps, in arrival
// order, each op's latency from its due time (ns; successful ops only),
// how late the generator queued it and how long it waited for its
// connection.
type phaseStats struct {
	ops, failed     int
	kinds           [len(opNames)]int // ops by kind
	firstErr        error
	lat, late, wait []int64
	wall            time.Duration
}

func (p *phaseStats) merge(o phaseStats) {
	p.ops += o.ops
	p.failed += o.failed
	for k, n := range o.kinds {
		p.kinds[k] += n
	}
	if p.firstErr == nil {
		p.firstErr = o.firstErr
	}
}

func (p *phaseStats) done(kind opKind, err error) {
	p.ops++
	p.kinds[kind]++
	if err != nil {
		p.failed++
		if p.firstErr == nil {
			p.firstErr = err
		}
	}
}

type arrival struct {
	n, slot     int
	due, queued time.Time
}

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK; a slack of 0 restores the
// thread's default (50 µs).
const prSetTimerSlack = 29

// sleepUntil sleeps the calling thread until due. Go's own timers wake at
// millisecond granularity when the process is idle (a time.Sleep shorter
// than 1 ms returns after ~1 ms), which would make arrivals 0.5 ms late at
// the median; nanosleep on a thread with a 1 ns timer slack wakes within
// ~10–50 µs. The caller holds its OS thread.
func sleepUntil(due time.Time) {
	for w := time.Until(due); w > 0; w = time.Until(due) {
		ts := syscall.NsecToTimespec(int64(w))
		_ = syscall.Nanosleep(&ts, nil) // interrupted: sleep what is left
	}
}

// phaseA offers fleetRate arrivals per second for d. One goroutine paces
// the arrivals and hands each to the connection owning its device; a
// connection that falls behind queues them, so the loop stays open.
func phaseA(cfg config, clients []*client, slots []string, d time.Duration) phaseStats {
	total := max(1, int(d.Seconds()*fleetRate))
	interval := time.Second / fleetRate
	queues := make([]chan arrival, len(clients))
	parts := make([]phaseStats, len(clients))
	// Indexed by arrival; each arrival is written by the one connection
	// that serves it.
	lat, late, wait := make([]int64, total), make([]int64, total), make([]int64, total)
	var wg sync.WaitGroup
	for i, c := range clients {
		// Room for every arrival of the phase: the generator never blocks.
		queues[i] = make(chan arrival, total)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range queues[i] {
				sent := time.Now()
				kind := kindOf(a.n)
				err := c.op(kind, slots, a.slot)
				parts[i].done(kind, err)
				lat[a.n-1] = -1
				if err == nil {
					lat[a.n-1] = int64(time.Since(a.due))
				}
				late[a.n-1] = int64(a.queued.Sub(a.due))
				wait[a.n-1] = int64(sent.Sub(a.queued))
			}
		}()
	}
	// The timer slack is per thread, so the pacer keeps its thread and
	// hands it back with the default slack. Should prctl fail, the default
	// slack only makes arrivals later, which loadgen.late_* reports.
	runtime.LockOSThread()
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	defer runtime.UnlockOSThread()
	defer syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 0, 0)
	g := lcg(cfg.seed)
	start := time.Now()
	for n := 1; n <= total; n++ {
		due := start.Add(time.Duration(n-1) * interval)
		sleepUntil(due)
		slot := g.next(len(slots))
		queues[slot%len(clients)] <- arrival{n: n, slot: slot, due: due, queued: time.Now()}
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	p := phaseStats{late: late, wait: wait, wall: time.Since(start)}
	for _, part := range parts {
		p.merge(part)
	}
	for _, l := range lat {
		if l >= 0 {
			p.lat = append(p.lat, l)
		}
	}
	return p
}

// phaseB runs every connection closed-loop for d, on its own devices.
func phaseB(cfg config, clients []*client, slots []string, d time.Duration) phaseStats {
	parts := make([]phaseStats, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := lcg(cfg.seed + int64(i) + 1)
			owned := (len(slots) - i + len(clients) - 1) / len(clients)
			for n := 1; n == 1 || time.Since(start) < d; n++ {
				kind := kindOf(n)
				parts[i].done(kind, c.op(kind, slots, i+len(clients)*g.next(owned)))
			}
		}()
	}
	wg.Wait()
	var p phaseStats
	for _, part := range parts {
		p.merge(part)
	}
	p.wall = time.Since(start)
	return p
}

// checkPhase books a phase's failed ops.
func checkPhase(res *result, name string, p phaseStats) {
	res.attempted += int64(p.ops)
	res.fail(p.failed, "phase %s: %d of %d ops failed, first: %v", name, p.failed, p.ops, p.firstErr)
}

// checkDevices checks the fleet still holds exactly the devices the
// client thinks it does.
func checkDevices(res *result, d *daemon, slots []string) {
	var list struct {
		Count   int                `json:"count"`
		Devices []serve.DeviceInfo `json:"devices"`
	}
	if !res.check(d.get("/devices", &list) == nil, "GET /devices failed") {
		return
	}
	ids := map[string]bool{}
	for _, dev := range list.Devices {
		ids[dev.ID] = true
	}
	missing := 0
	for _, id := range slots {
		if !ids[id] {
			missing++
		}
	}
	res.check(list.Count == len(slots) && missing == 0,
		"daemon lists %d devices, client holds %d, %d of them missing", list.Count, len(slots), missing)
}

// runFleet is the fleet-http workload: set-up boots the daemon and its
// devices; phase A measures latency under open-loop load, phase B
// throughput under closed-loop load.
func runFleet(cfg config) (*result, error) {
	if cfg.trace {
		return traceFleet(cfg)
	}
	res := &result{}
	setup := make([]float64, cfg.setupReps)
	var (
		d       *daemon
		clients []*client
		slots   []string
		err     error
	)
	for i := range setup {
		if d != nil {
			if err := stopFleet(d, clients); err != nil {
				return nil, fmt.Errorf("stop daemon: %w", err)
			}
		}
		t := time.Now()
		if d, clients, slots, err = bootFleet(cfg, false); err != nil {
			return nil, err
		}
		setup[i] = time.Since(t).Seconds()
	}
	l, err := loadFleet(cfg, d, clients, slots)
	if err == nil {
		checkDevices(res, d, slots)
	}
	if err = errors.Join(err, stopFleet(d, clients)); err != nil {
		return nil, err
	}
	checkPhase(res, "A", l.a)
	checkPhase(res, "B", l.b)
	// Throughput and CPU are phase B's, latency phase A's from each
	// arrival's due time. CPU over both phases would weigh phase A's fixed
	// op count, which costs ~1.7x as much CPU per op on a daemon that
	// idles between arrivals, against however many ops phase B managed:
	// a slow stretch of the host then raised it twice over.
	rate := float64(l.b.ops-l.b.failed) / l.b.wall.Seconds()
	res.addEndToEnd(setup, rate, ratio(us(l.daemonB.CPUNs), float64(l.b.ops)), l.memMB, l.a.lat)
	late := sortedCopy(l.a.late)
	res.note("phase A %d ops (install/attack/churn %v), lateness p50 %.3f ms, p99 %.3f ms; phase B %d ops (%v) in %.2fs; daemon CPU per op %.1f us over both phases",
		l.a.ops, l.a.kinds, ms(quantile(late, 0.5)), ms(quantile(late, 0.99)), l.b.ops, l.b.kinds, l.b.wall.Seconds(),
		ratio(us(l.daemon.CPUNs), float64(l.ops())))
	return res, nil
}

// load is what both phases did, with the daemon's and this process's
// resource use over them (daemonB: the daemon's over phase B alone);
// daemon.MaxRSSKB is the daemon's growth in peak RSS and memMB the median
// of the daemon's memory samples.
type load struct {
	a, b           phaseStats
	daemon, client usage
	daemonB        usage
	memMB          float64
}

func (l load) ops() int { return l.a.ops + l.b.ops }

// cpuPerOp is the CPU the daemon and the client spent per op, in ns.
func (l load) cpuPerOp() float64 {
	return ratio(float64(l.daemon.CPUNs+l.client.CPUNs), float64(l.ops()))
}

// loadFleet runs both phases against d.
func loadFleet(cfg config, d *daemon, clients []*client, slots []string) (load, error) {
	var l load
	before, err := d.usage()
	if err != nil {
		return l, err
	}
	self := readUsage()
	mem := sampleMem(func() (uint64, error) {
		u, err := d.usage()
		return u.MemBytes, err
	})
	aDur := time.Duration(float64(cfg.window) * phaseAShare)
	l.a = phaseA(cfg, clients, slots, aDur)
	mid, errMid := d.usage()
	l.b = phaseB(cfg, clients, slots, cfg.window-aDur)
	l.memMB = mem()
	l.client = readUsage().since(self)
	after, err := d.usage()
	l.daemon = after.since(before)
	l.daemon.MaxRSSKB = after.MaxRSSKB - before.MaxRSSKB
	l.daemonB = after.since(mid)
	return l, errors.Join(errMid, err)
}

// traceFleet is the traced pass of the fleet workload. An untraced daemon
// first runs half the window as the reference for the tracing overhead
// (CPU per op, daemon and client together: wall rates on a shared 2-CPU
// host swing more than tracing costs) and for the daemon's Go runtime
// metrics; a daemon whose handler is timed by timeHandler then runs the
// other half with every request traced.
func traceFleet(cfg config) (*result, error) {
	res := &result{}
	half := cfg
	half.window = cfg.window / 2

	d, clients, slots, err := bootFleet(half, false)
	if err != nil {
		return nil, err
	}
	ref, err := loadFleet(half, d, clients, slots)
	if err = errors.Join(err, stopFleet(d, clients)); err != nil {
		return nil, err
	}

	if d, clients, slots, err = bootFleet(half, true); err != nil {
		return nil, err
	}
	for _, c := range clients {
		// Per-request figures describe the load phases, not the boot.
		c.requests = nil
		c.ops = [len(opNames)][]int64{}
	}
	h0, m0, _, _, err := d.arenaCounters()
	if err != nil {
		return nil, errors.Join(err, stopFleet(d, clients))
	}
	l, err := loadFleet(half, d, clients, slots)
	var h1, m1, resets, resetNs int64
	if err == nil {
		h1, m1, resets, resetNs, err = d.arenaCounters()
	}
	if err = errors.Join(err, stopFleet(d, clients)); err != nil {
		return nil, err
	}
	checkPhase(res, "A", l.a)
	checkPhase(res, "B", l.b)
	res.fail(ref.a.failed+ref.b.failed, "reference daemon: %d ops failed, first: %v %v",
		ref.a.failed+ref.b.failed, ref.a.firstErr, ref.b.firstErr)

	var reqs []request
	var lanes []*lane
	var byKind [len(opNames)][]int64
	for _, c := range clients {
		reqs = append(reqs, c.requests...)
		lanes = append(lanes, c.lane)
		for k := range byKind {
			byKind[k] = append(byKind[k], c.ops[k]...)
		}
		res.fail(len(c.bad), "%d requests break rtt = net + dispatch + tx, first: %v", len(c.bad), c.bad)
	}
	var rtt, handler, tx, dispatch, netw []int64
	for _, r := range reqs {
		rtt = append(rtt, r.rtt)
		handler = append(handler, r.handler)
		netw = append(netw, r.rtt-r.handler)
		dispatch = append(dispatch, r.handler-r.tx)
		if r.tx > 0 {
			tx = append(tx, r.tx)
		}
	}
	q := func(xs []int64, p float64) int64 { return quantile(sortedCopy(xs), p) }
	res.add("http.rtt_p50_ms", ms(q(rtt, 0.5)), "ms")
	res.add("http.rtt_p99_ms", ms(q(rtt, 0.99)), "ms")
	for k, name := range opNames {
		res.add("serve."+name+".rtt_p50_ms", ms(q(byKind[k], 0.5)), "ms")
	}
	res.add("serve.handler_p50_us", us(q(handler, 0.5)), "us")
	res.add("serve.handler_p99_us", us(q(handler, 0.99)), "us")
	res.add("serve.tx_p50_us", us(q(tx, 0.5)), "us")
	res.add("serve.tx_p99_us", us(q(tx, 0.99)), "us")
	res.add("serve.dispatch_p50_us", us(q(dispatch, 0.5)), "us")
	res.add("net.p50_us", us(q(netw, 0.5)), "us")
	res.add("serve.rss_growth_kb_per_op", ratio(float64(l.daemon.MaxRSSKB), float64(l.ops())), "KB")
	res.add("arena.warm_hit_ratio", ratio(float64(h1-h0), float64(h1-h0+m1-m0)), "ratio")
	res.add("arena.hit_ratio", ratio(float64(h1), float64(h1+m1)), "ratio")
	res.add("arena.reset_mean_us", ratio(us(resetNs), float64(resets)), "us")
	res.add("loadgen.late_p50_ms", ms(q(l.a.late, 0.5)), "ms")
	res.add("loadgen.late_p99_ms", ms(q(l.a.late, 0.99)), "ms")
	res.add("loadgen.conn_wait_p99_ms", ms(q(l.a.wait, 0.99)), "ms")
	res.addGo(ref.daemon, ref.ops())
	res.add("trace_overhead_frac", ratio(l.cpuPerOp(), ref.cpuPerOp())-1, "ratio")
	res.note("traced %d requests over %d ops; CPU per op %.1f us traced, %.1f us untraced",
		len(reqs), l.ops(), us(int64(l.cpuPerOp())), us(int64(ref.cpuPerOp())))
	return res, writeTrace(cfg, res, lanes)
}
