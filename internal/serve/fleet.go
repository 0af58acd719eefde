package serve

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ghost-installer/gia/internal/apk"
	"github.com/ghost-installer/gia/internal/arena"
	"github.com/ghost-installer/gia/internal/attack"
	"github.com/ghost-installer/gia/internal/chaos"
	"github.com/ghost-installer/gia/internal/device"
	"github.com/ghost-installer/gia/internal/experiment"
	"github.com/ghost-installer/gia/internal/installer"
	"github.com/ghost-installer/gia/internal/obs"
	"github.com/ghost-installer/gia/internal/sig"
	"github.com/ghost-installer/gia/internal/timeline"
)

// Config sizes a Fleet.
type Config struct {
	// Shards is the number of goroutine-owned device arenas; 0 defaults
	// to 4. Devices are placed on the shard with the deepest idle pool,
	// so reclaimed devices are rebooted as ~18 µs arena resets instead of
	// fresh boots.
	Shards int
	// Seed is the base of the per-device seed derivation.
	Seed int64
	// IdleReclaim returns devices untouched for this long to their
	// shard's pool; 0 disables the reclaim loop.
	IdleReclaim time.Duration
	// ReclaimTick overrides the reclaim scan cadence (default
	// IdleReclaim/4).
	ReclaimTick time.Duration
	// Registry receives the fleet's serve.* and arena.* metrics; nil
	// disables instrumentation (nil obs hooks are free).
	Registry *obs.Registry
	// FlightDepth sizes the per-device flight-recorder rings (events per
	// track, appended at zero allocations). 0 means the 256-event default;
	// negative disables the recorder entirely.
	FlightDepth int
	// DumpDir, when non-empty, receives flight-recorder dumps: chaos
	// replay violations, failed arena resets and serve transaction errors
	// each write the involved rings' tails as Chrome-trace JSON + JSONL.
	DumpDir string
	// Clock is the wall timebase for transaction timing and hub event
	// stamps; nil defaults to a real stopwatch. Tests inject a fake so
	// reported latencies are deterministic.
	Clock obs.Clock
}

// defaultFlightDepth is the per-track ring size when Config.FlightDepth
// is zero: 256 events comfortably covers a full AIT (~8 step instants +
// outcome span) for the last ~25 transactions of a device.
const defaultFlightDepth = 256

// managedDevice is one fleet device. The mutable simulation state (dev,
// scen, rec, the transaction counters) is owned by the shard goroutine:
// it is only touched inside shard.run closures.
type managedDevice struct {
	id       string
	shardRef *shard
	seed     int64
	store    string
	prof     installer.Profile
	patched  bool
	created  time.Time
	lastUsed atomic.Int64 // unix-nano of the last transaction

	dev      *device.Device
	scen     *experiment.Scenario
	rec      *timeline.Recorder
	installs int
	attacks  int
	hijacks  int

	// ring is the device's flight-recorder lane ("device/<id>", virtual
	// domain, clocked by the device scheduler). The obs.Track is internally
	// synchronized, so the HTTP trace/dump readers may touch it off-shard;
	// nil when the recorder is disabled.
	ring *obs.Track
}

// fleetMetrics are the serve.* observability hooks; nil hooks no-op.
type fleetMetrics struct {
	created          *obs.Counter
	reclaimed        *obs.Counter
	idleReclaims     *obs.Counter
	active           *obs.Gauge
	installs         *obs.Counter
	installsClean    *obs.Counter
	installsHijacked *obs.Counter
	installsFailed   *obs.Counter
	attacks          *obs.Counter
	attacksHijacked  *obs.Counter
	replays          *obs.Counter
	replayViolations *obs.Counter
	txNS             *obs.Histogram
}

func instrumentFleet(reg *obs.Registry) fleetMetrics {
	return fleetMetrics{
		created:          reg.Counter("serve.devices.created"),
		reclaimed:        reg.Counter("serve.devices.reclaimed"),
		idleReclaims:     reg.Counter("serve.devices.idle_reclaims"),
		active:           reg.Gauge("serve.devices.active"),
		installs:         reg.Counter("serve.installs"),
		installsClean:    reg.Counter("serve.installs.clean"),
		installsHijacked: reg.Counter("serve.installs.hijacked"),
		installsFailed:   reg.Counter("serve.installs.failed"),
		attacks:          reg.Counter("serve.attacks"),
		attacksHijacked:  reg.Counter("serve.attacks.hijacked"),
		replays:          reg.Counter("serve.replays"),
		replayViolations: reg.Counter("serve.replays.violations"),
		txNS:             reg.Histogram("serve.tx_ns", obs.LatencyBuckets()),
	}
}

// Fleet is the daemon's arena-backed device fleet, served over HTTP by
// NewHandler.
type Fleet struct {
	cfg    Config
	reg    *obs.Registry
	met    fleetMetrics
	shards []*shard
	slos   []*shardSLO
	flight *obs.Trace // ring-mode flight recorder; nil when disabled
	hub    *obs.Hub   // lifecycle/violation events (the GET /events source)
	clock  obs.Clock
	// dumpSeq numbers trigger-keyed dump files so concurrent triggers
	// never collide on a name.
	dumpSeq atomic.Int64

	mu        sync.Mutex
	devices   map[string]*managedDevice
	nextID    int64
	nextShard int
	closed    bool
	// wg counts in-flight operations; Close waits for it after flipping
	// closed, which drains every running transaction before the shards
	// stop.
	wg sync.WaitGroup

	// replayMu serializes chaos replays: the replay explorer's worker
	// arena is single-threaded like everything else in the simulation.
	replayMu sync.Mutex
	replayEx *chaos.Explorer

	reclaimStop chan struct{}
	reclaimDone chan struct{}
}

// NewFleet builds the shards and starts the idle-reclaim loop.
func NewFleet(cfg Config) *Fleet {
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.FlightDepth == 0 {
		cfg.FlightDepth = defaultFlightDepth
	}
	f := &Fleet{
		cfg:     cfg,
		reg:     cfg.Registry,
		devices: make(map[string]*managedDevice),
		hub:     obs.NewHub(),
		clock:   cfg.Clock,
	}
	if f.clock == nil {
		f.clock = obs.Stopwatch()
	}
	if cfg.FlightDepth > 0 {
		// The recorder is virtual-domain only (device schedulers clock the
		// rings), which is what keeps replay-violation dumps deterministic.
		f.flight = obs.NewTrace()
		f.flight.SetWallClock(nil)
		f.flight.SetRingDepth(cfg.FlightDepth)
	}
	if cfg.Registry != nil {
		f.met = instrumentFleet(cfg.Registry)
	}
	// All shard arenas share one Metrics value, so arena.* counters
	// aggregate across the fleet (the ArenaWorkerState pattern).
	var arenaMet arena.Metrics
	if cfg.Registry != nil {
		arenaMet = arena.Instrument(cfg.Registry)
	}
	// A failed in-place reset is the one corruption signal the arena can
	// raise: broadcast it and dump every ring before the fall-back boot
	// papers over the evidence. The hook runs on the shard goroutine that
	// hit the failure; dumps and hub publishes are both off-shard-safe.
	arenaMet.ResetFailureHook = func(err error) {
		f.hub.Publish("arena.reset_failure", "", err.Error(), f.clock())
		f.dumpAll(fmt.Sprintf("reset-failure-%d", f.dumpSeq.Add(1)))
	}
	prof := experiment.ScenarioDeviceProfile(0)
	f.shards = make([]*shard, cfg.Shards)
	f.slos = make([]*shardSLO, cfg.Shards)
	for i := range f.shards {
		f.shards[i] = newShard(i, prof, arenaMet)
		f.slos[i] = newShardSLO(i, cfg.Registry)
	}
	f.replayEx = &chaos.Explorer{
		Workers:     1,
		Metrics:     cfg.Registry,
		WorkerState: experiment.ArenaWorkerState(cfg.Registry),
		// Replay runs record onto the flight recorder and dump their ring
		// tail on violation, tagged with the replay token.
		Trace:     f.flight,
		DumpDir:   cfg.DumpDir,
		DumpDepth: cfg.FlightDepth,
	}
	if cfg.IdleReclaim > 0 {
		tick := cfg.ReclaimTick
		if tick <= 0 {
			tick = cfg.IdleReclaim / 4
		}
		if tick <= 0 {
			tick = time.Second
		}
		f.reclaimStop = make(chan struct{})
		f.reclaimDone = make(chan struct{})
		go f.reclaimLoop(tick)
	}
	return f
}

// deriveSeed spreads the device counter over the seed space (splitmix64),
// so fleet devices never share RNG streams.
func deriveSeed(base, n int64) int64 {
	z := uint64(base) + uint64(n)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// pickShard places a new device on the shard with the deepest idle pool
// (ties broken round-robin), so a reclaimed device is preferentially
// reused by the next create — the arena hit path. Callers hold f.mu.
func (f *Fleet) pickShard() *shard {
	best := f.shards[f.nextShard%len(f.shards)]
	f.nextShard++
	for _, s := range f.shards {
		if s.idle.Load() > best.idle.Load() {
			best = s
		}
	}
	return best
}

// begin registers an in-flight operation; it fails once the fleet is
// closed. Every public operation brackets itself with begin/end.
func (f *Fleet) begin() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	f.wg.Add(1)
	return nil
}

func (f *Fleet) end() { f.wg.Done() }

// CreateDevice acquires a device from a shard arena, deploys the store
// scenario on it and registers it in the fleet.
func (f *Fleet) CreateDevice(req CreateDeviceRequest) (DeviceInfo, error) {
	store, prof, err := profileFor(req.Store)
	if err != nil {
		return DeviceInfo{}, err
	}
	if err := f.begin(); err != nil {
		return DeviceInfo{}, err
	}
	defer f.end()

	f.mu.Lock()
	f.nextID++
	sh := f.pickShard()
	d := &managedDevice{
		id:       fmt.Sprintf("d%06d", f.nextID),
		shardRef: sh,
		seed:     deriveSeed(f.cfg.Seed, f.nextID),
		store:    store,
		prof:     prof,
		patched:  req.Patched,
		created:  time.Now(), //gia:wallclock — API-facing creation stamp
	}
	f.mu.Unlock()
	d.lastUsed.Store(time.Now().UnixNano()) //gia:wallclock — idle-reclaim bookkeeping

	payload := []byte("genuine")
	if req.PayloadBytes > 0 {
		payload = bytes.Repeat([]byte{0x5a}, req.PayloadBytes)
	}
	var info DeviceInfo
	var buildErr error
	sh.run(func() {
		dev, err := sh.acquire(d.seed)
		if err != nil {
			buildErr = fmt.Errorf("serve: boot device: %w", err)
			return
		}
		scen, err := experiment.NewScenarioPayloadOn(dev, prof, payload)
		if err != nil {
			// The device never reached a known-good state; hand it back to
			// the pool, where the next acquire resets (or drops) it.
			sh.release(dev)
			buildErr = fmt.Errorf("serve: deploy scenario: %w", err)
			return
		}
		if req.Patched {
			dev.Fuse.SetPatched(true)
		}
		if req.Timeline {
			rec := timeline.New(dev.Sched.Now)
			if err := rec.WatchFS(dev.FS, prof.StagingDir); err != nil {
				sh.release(dev)
				buildErr = fmt.Errorf("serve: watch staging dir: %w", err)
				return
			}
			rec.WatchPackages(dev.PMS)
			d.rec = rec
		}
		if f.flight != nil {
			// The device's ring: scheduler-clocked, fed the installer's
			// per-step AIT instants and outcome spans from here on.
			d.ring = f.flight.VirtualTrack("device/" + d.id)
			d.ring.SetClock(dev.Sched.Now)
		}
		scen.Store.Instrument(f.reg, d.ring)
		d.dev, d.scen = dev, scen
		info = d.info()
	})
	if buildErr != nil {
		return DeviceInfo{}, buildErr
	}

	f.mu.Lock()
	f.devices[d.id] = d
	f.mu.Unlock()
	f.met.created.Inc()
	f.met.active.Add(1)
	f.hub.Publish("device.created", d.id, store, f.clock())
	return info, nil
}

// withDevice runs fn for device id on its owning shard goroutine —
// the only way any fleet code touches simulation state.
func (f *Fleet) withDevice(id string, fn func(*managedDevice) error) error {
	if err := f.begin(); err != nil {
		return err
	}
	defer f.end()
	f.mu.Lock()
	d, ok := f.devices[id]
	f.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	var err error
	d.shardRef.run(func() {
		if d.dev == nil { // reclaimed while we raced here
			err = ErrNotFound
			return
		}
		err = fn(d)
	})
	return err
}

// info renders the status view. Shard-goroutine only.
func (d *managedDevice) info() DeviceInfo {
	return DeviceInfo{
		ID:        d.id,
		Store:     d.store,
		Shard:     d.shardRef.id,
		Seed:      d.seed,
		Patched:   d.patched,
		Timeline:  d.rec != nil,
		CreatedAt: d.created.UTC().Format(time.RFC3339),
		VirtualMs: int64(d.dev.Sched.Now() / time.Millisecond),
		Packages:  len(d.dev.PMS.Packages()),
		Installs:  d.installs,
		Attacks:   d.attacks,
		Hijacks:   d.hijacks,
	}
}

// Device reports one device's status.
func (f *Fleet) Device(id string) (DeviceInfo, error) {
	var info DeviceInfo
	err := f.withDevice(id, func(d *managedDevice) error {
		info = d.info()
		return nil
	})
	return info, err
}

// Devices lists every active device, sorted by ID.
func (f *Fleet) Devices() []DeviceInfo {
	f.mu.Lock()
	ids := make([]string, 0, len(f.devices))
	for id := range f.devices {
		ids = append(ids, id)
	}
	f.mu.Unlock()
	sort.Strings(ids)
	out := make([]DeviceInfo, 0, len(ids))
	for _, id := range ids {
		if info, err := f.Device(id); err == nil {
			out = append(out, info)
		}
	}
	return out
}

// DeleteDevice reclaims the device to its shard's arena pool. The next
// CreateDevice on that shard turns it into a reset-in-place hit.
func (f *Fleet) DeleteDevice(id string) error {
	err := f.withDevice(id, func(d *managedDevice) error {
		if d.rec != nil {
			d.rec.Close()
			d.rec = nil
		}
		d.shardRef.release(d.dev)
		d.dev, d.scen, d.ring = nil, nil, nil
		return nil
	})
	if err != nil {
		return err
	}
	// Drop the flight-recorder lane with the device, or a long-lived
	// daemon leaks one ring per reclaimed device.
	f.flight.Drop(obs.DomainVirtual, "device/"+id)
	f.mu.Lock()
	delete(f.devices, id)
	f.mu.Unlock()
	f.met.reclaimed.Inc()
	f.met.active.Add(-1)
	f.hub.Publish("device.reclaimed", id, "", f.clock())
	return nil
}

// Install publishes a fresh package on the device's store and drives one
// clean install transaction to completion.
func (f *Fleet) Install(id string, req InstallRequest) (InstallResult, error) {
	var out InstallResult
	err := f.withDevice(id, func(d *managedDevice) error {
		start := f.clock()
		d.lastUsed.Store(time.Now().UnixNano()) //gia:wallclock — idle-reclaim bookkeeping
		d.installs++
		pkg := fmt.Sprintf("com.fleet.%s.app%05d", d.id, d.installs)
		payload := []byte(pkg)
		if req.PayloadBytes > 0 {
			payload = bytes.Repeat([]byte{0x5b}, req.PayloadBytes)
		}
		a := apk.Build(apk.Manifest{Package: pkg, VersionCode: 1, Label: pkg},
			map[string][]byte{"classes.dex": payload}, sig.NewKey(pkg+"-dev"))
		d.scen.Store.Store.Publish(a)

		res, completed := driveAIT(d, pkg)
		out = InstallResult{
			Package:   pkg,
			Installed: res.Succeeded(),
			Clean:     res.Clean(),
			Hijacked:  res.Hijacked,
			Attempts:  res.Attempts,
			VirtualMs: int64(d.dev.Sched.Now() / time.Millisecond),
			WallNS:    int64(f.clock() - start),
		}
		switch {
		case !completed:
			out.Err = "transaction did not complete within the horizon"
		case res.Err != nil:
			out.Err = res.Err.Error()
		}
		f.met.installs.Inc()
		switch {
		case out.Clean:
			f.met.installsClean.Inc()
		case out.Hijacked:
			f.met.installsHijacked.Inc()
			d.hijacks++
		default:
			f.met.installsFailed.Inc()
		}
		f.finishTx(d, "install "+pkg, out.WallNS, out.Err)
		return nil
	})
	return out, err
}

// finishTx books one transaction's SLO outcome and, when it errored,
// broadcasts a tx.error hub event and dumps the device's ring tail.
// Shard-goroutine only (SLO state and the hub tolerate any goroutine, but
// the ring read must not race the transaction that just wrote it).
func (f *Fleet) finishTx(d *managedDevice, what string, wallNS int64, errText string) {
	f.met.txNS.Observe(wallNS)
	f.slos[d.shardRef.id].record(wallNS, errText != "")
	if errText == "" {
		return
	}
	f.hub.Publish("tx.error", d.id, what+": "+errText, f.clock())
	if d.ring != nil {
		f.dumpTracks(fmt.Sprintf("txerror-%s-%d", d.id, f.dumpSeq.Add(1)), []*obs.Track{d.ring})
	}
}

// Attack launches a TOCTOU strategy against the device's published target
// and drives one AIT under attack.
func (f *Fleet) Attack(id string, req AttackRequest) (AttackResult, error) {
	strat, err := strategyFor(req.Strategy)
	if err != nil {
		return AttackResult{}, err
	}
	var out AttackResult
	err = f.withDevice(id, func(d *managedDevice) error {
		start := f.clock()
		d.lastUsed.Store(time.Now().UnixNano()) //gia:wallclock — idle-reclaim bookkeeping
		d.attacks++
		atk := attack.NewTOCTOU(d.scen.Mal, attack.ConfigForStore(d.prof, strat), d.scen.Target)
		if err := atk.Launch(); err != nil {
			return fmt.Errorf("serve: launch attack: %w", err)
		}
		res, completed := driveAIT(d, experiment.TargetPackage)
		atk.Stop()
		out = AttackResult{
			Target:       experiment.TargetPackage,
			Strategy:     strat.String(),
			Hijacked:     res.Hijacked,
			Installed:    res.Succeeded(),
			Attempts:     res.Attempts,
			Replacements: len(atk.Replacements()),
			VirtualMs:    int64(d.dev.Sched.Now() / time.Millisecond),
			WallNS:       int64(f.clock() - start),
		}
		switch {
		case !completed:
			out.Err = "transaction did not complete within the horizon"
		case res.Err != nil:
			out.Err = res.Err.Error()
		}
		if res.Hijacked {
			d.hijacks++
			f.met.attacksHijacked.Inc()
		}
		f.met.attacks.Inc()
		f.finishTx(d, "attack "+strat.String(), out.WallNS, out.Err)
		return nil
	})
	return out, err
}

// driveAIT submits one install of pkg and drives the device's clock one
// horizon forward. Shard-goroutine only.
func driveAIT(d *managedDevice, pkg string) (installer.Result, bool) {
	var res installer.Result
	completed := false
	d.scen.Store.RequestInstall(pkg, func(r installer.Result) {
		res = r
		completed = true
	})
	d.dev.Sched.RunUntil(d.dev.Sched.Now() + txHorizon)
	if d.rec != nil && completed {
		d.rec.RecordAIT(res)
	}
	return res, completed
}

// Timeline returns the device's recorded event timeline.
func (f *Fleet) Timeline(id string) ([]TimelineEntry, error) {
	var out []TimelineEntry
	err := f.withDevice(id, func(d *managedDevice) error {
		if d.rec == nil {
			return badRequestf("device %s has no timeline (create with \"timeline\": true)", id)
		}
		entries := d.rec.Entries()
		out = make([]TimelineEntry, len(entries))
		for i, e := range entries {
			out[i] = TimelineEntry{
				AtMs:   float64(e.At) / float64(time.Millisecond),
				Source: e.Source,
				Detail: e.Detail,
			}
		}
		return nil
	})
	return out, err
}

// Replay re-executes a chaos token against the canonical hijack invariant
// on its own single-threaded explorer (not a fleet device: replays carry
// fault plans and arbiter choices that must not leak into live devices).
func (f *Fleet) Replay(req ReplayRequest) (ReplayResult, error) {
	parsed, err := chaos.ParseToken(req.Token)
	if err != nil {
		return ReplayResult{}, badRequestf("parse token: %v", err)
	}
	_, prof, err := profileFor(req.Store)
	if err != nil {
		return ReplayResult{}, err
	}
	strat, err := strategyFor(req.Strategy)
	if err != nil {
		return ReplayResult{}, err
	}
	if err := f.begin(); err != nil {
		return ReplayResult{}, err
	}
	defer f.end()
	f.replayMu.Lock()
	defer f.replayMu.Unlock()
	resolved, rerr := f.replayEx.Replay(req.Token, experiment.HijackRunFunc(prof, strat))
	// The replay's trace lane served its purpose (a violation already
	// dumped its tail, keyed by token); drop it so repeated replays do not
	// accumulate rings.
	f.flight.Drop(obs.DomainVirtual, "run/"+parsed.Token())
	out := ReplayResult{Token: req.Token, Resolved: resolved.Token(), Violated: rerr != nil}
	if rerr != nil {
		out.Detail = rerr.Error()
	}
	f.met.replays.Inc()
	if rerr != nil {
		f.met.replayViolations.Inc()
		f.hub.Publish("replay.violation", resolved.Token(), out.Detail, f.clock())
	}
	return out, nil
}

// reclaimLoop returns devices idle past the configured age to their
// shard's pool.
func (f *Fleet) reclaimLoop(tick time.Duration) {
	defer close(f.reclaimDone)
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-f.reclaimStop:
			return
		case <-t.C:
			f.reclaimIdle()
		}
	}
}

func (f *Fleet) reclaimIdle() {
	cutoff := time.Now().Add(-f.cfg.IdleReclaim).UnixNano() //gia:wallclock — idle-reclaim bookkeeping
	f.mu.Lock()
	var stale []string
	for id, d := range f.devices {
		if d.lastUsed.Load() < cutoff {
			stale = append(stale, id)
		}
	}
	f.mu.Unlock()
	for _, id := range stale {
		if err := f.DeleteDevice(id); err == nil {
			f.met.idleReclaims.Inc()
			f.hub.Publish("device.idle_reclaim", id, "", f.clock())
		}
	}
}

// Close drains in-flight transactions, stops the reclaim loop and shuts
// the shard goroutines down. Safe to call more than once.
func (f *Fleet) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	f.mu.Unlock()
	if f.reclaimStop != nil {
		close(f.reclaimStop)
		<-f.reclaimDone
	}
	f.wg.Wait()
	for _, s := range f.shards {
		s.close()
	}
}
