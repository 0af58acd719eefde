// Package gia is the public API of the Ghost Installer Attack (GIA)
// simulation library — a from-scratch reproduction of "Ghost Installer in
// the Shadow: Security Analysis of App Installation on Android" (DSN 2017).
//
// The library provides:
//
//   - a deterministic, virtual-time simulated Android device (filesystem,
//     FUSE-wrapped SD card, PackageManagerService, PackageInstallerActivity,
//     Download Manager, Intent system with IntentFirewall, /proc);
//   - behavioural profiles of the installer apps the paper analysed
//     (Amazon, Xiaomi, Baidu, Qihoo360, DTIgnite, SlideMe, Google Play, …)
//     running the full App Installation Transaction (AIT);
//   - every Ghost Installer Attack: TOCTOU installation hijacking (both the
//     FileObserver and wait-and-see strategies), the Download Manager
//     symlink attack, the redirect-Intent attack, command injection against
//     store interfaces and Hare privilege escalation;
//   - both defenses: the DAPP user-level app and the system-level FUSE DAC
//     patch plus the two IntentFirewall schemes;
//   - the Section IV measurement study over a calibrated synthetic corpus,
//     and an experiment harness that regenerates every table and figure of
//     the paper's evaluation.
//
// Quickstart:
//
//	dev, _ := gia.BootDevice(gia.DeviceProfile{Name: "galaxy-s6", Vendor: "samsung", Seed: 1})
//	store, _ := gia.DeployInstaller(dev, gia.AmazonProfile(), nil)
//	store.Store.Publish(myAPK)
//	store.RequestInstall("com.example.app", func(r gia.InstallResult) { ... })
//	dev.Run()
package gia

import (
	"io"
	"time"

	"github.com/ghost-installer/gia/internal/analysis"
	"github.com/ghost-installer/gia/internal/apk"
	"github.com/ghost-installer/gia/internal/attack"
	"github.com/ghost-installer/gia/internal/chaos"
	"github.com/ghost-installer/gia/internal/corpus"
	"github.com/ghost-installer/gia/internal/defense"
	"github.com/ghost-installer/gia/internal/device"
	"github.com/ghost-installer/gia/internal/dm"
	"github.com/ghost-installer/gia/internal/experiment"
	"github.com/ghost-installer/gia/internal/fault"
	"github.com/ghost-installer/gia/internal/installer"
	"github.com/ghost-installer/gia/internal/intents"
	"github.com/ghost-installer/gia/internal/measure"
	"github.com/ghost-installer/gia/internal/obs"
	"github.com/ghost-installer/gia/internal/par"
	"github.com/ghost-installer/gia/internal/perm"
	"github.com/ghost-installer/gia/internal/sig"
	"github.com/ghost-installer/gia/internal/sim"
	"github.com/ghost-installer/gia/internal/vfs"
)

// Device simulation.
type (
	// Device is one booted simulated Android phone.
	Device = device.Device
	// DeviceProfile configures a device to boot.
	DeviceProfile = device.Profile
	// UID is a Linux/Android user id on the device.
	UID = vfs.UID
	// Intent is an explicit Android intent.
	Intent = intents.Intent
	// FirewallAlert is a redirect-Intent detection event.
	FirewallAlert = intents.Alert
)

// BootDevice boots a simulated device.
func BootDevice(p DeviceProfile) (*Device, error) { return device.Boot(p) }

// Download Manager symlink policies, selectable via DeviceProfile.DMPolicy.
const (
	DMPolicyLegacy  = dm.PolicyLegacy
	DMPolicyRecheck = dm.PolicyRecheck
	DMPolicyFixed   = dm.PolicyFixed
)

// Packages and signing.
type (
	// APK is an application package.
	APK = apk.APK
	// Manifest is an AndroidManifest.
	Manifest = apk.Manifest
	// PermissionDef declares a permission in a manifest.
	PermissionDef = apk.PermissionDef
	// Component declares an app component in a manifest.
	Component = apk.Component
	// SigningKey signs APKs.
	SigningKey = sig.Key
)

// BuildAPK assembles and signs an APK.
func BuildAPK(m Manifest, files map[string][]byte, key *SigningKey) *APK {
	return apk.Build(m, files, key)
}

// NewKey derives a deterministic signing key for a subject.
func NewKey(subject string) *SigningKey { return sig.NewKey(subject) }

// DecodeAPK parses an encoded APK, requiring a complete EOCD record.
func DecodeAPK(data []byte) (*APK, error) { return apk.Decode(data) }

// RepackageAPK builds a same-manifest repackage with attacker files.
func RepackageAPK(orig *APK, files map[string][]byte, key *SigningKey, stripDRM bool) *APK {
	return apk.Repackage(orig, files, key, stripDRM)
}

// Well-known permission names.
const (
	PermWriteExternalStorage = perm.WriteExternalStorage
	PermReadExternalStorage  = perm.ReadExternalStorage
	PermInstallPackages      = perm.InstallPackages
	PermInternet             = perm.Internet
)

// Installers and the AIT.
type (
	// InstallerProfile describes one store's AIT implementation.
	InstallerProfile = installer.Profile
	// InstallerApp is a deployed installer on a device.
	InstallerApp = installer.App
	// InstallResult is the outcome of one AIT.
	InstallResult = installer.Result
	// AITStep is one trace entry of an AIT run.
	AITStep = installer.TraceStep
)

// Store profiles measured in the paper.
func AmazonProfile() InstallerProfile      { return installer.Amazon() }
func AmazonV2Profile() InstallerProfile    { return installer.AmazonV2() }
func XiaomiProfile() InstallerProfile      { return installer.Xiaomi() }
func BaiduProfile() InstallerProfile       { return installer.Baidu() }
func Qihoo360Profile() InstallerProfile    { return installer.Qihoo360() }
func DTIgniteProfile() InstallerProfile    { return installer.DTIgnite() }
func SlideMeProfile() InstallerProfile     { return installer.SlideMe() }
func TencentProfile() InstallerProfile     { return installer.Tencent() }
func HuaweiStoreProfile() InstallerProfile { return installer.HuaweiStore() }
func SprintZoneProfile() InstallerProfile  { return installer.SprintZone() }
func GooglePlayProfile() InstallerProfile  { return installer.GooglePlay() }
func APKPureProfile() InstallerProfile     { return installer.APKPure() }
func GalaxyAppsProfile() InstallerProfile  { return installer.GalaxyApps() }

// OrdinaryDeveloperProfile is the hash-check-free self-made installer of
// Section II.
func OrdinaryDeveloperProfile(pkg string) InstallerProfile {
	return installer.OrdinaryDeveloper(pkg)
}

// HardenedProfile applies the paper's Section VII developer suggestions to
// a store profile: prefer internal staging when space allows and verify on
// a private copy otherwise.
func HardenedProfile(prof InstallerProfile) InstallerProfile { return installer.Hardened(prof) }

// AllStoreProfiles lists every store profile.
func AllStoreProfiles() []InstallerProfile { return installer.AllStoreProfiles() }

// DeployInstaller installs a store app built from a profile onto a device.
func DeployInstaller(dev *Device, prof InstallerProfile, key *SigningKey) (*InstallerApp, error) {
	return installer.Deploy(dev, prof, key)
}

// Attacks.
type (
	// Malware is the adversary's resident app.
	Malware = attack.Malware
	// TOCTOUAttack is an installation hijack in progress.
	TOCTOUAttack = attack.TOCTOU
	// TOCTOUConfig parameterizes a hijack.
	TOCTOUConfig = attack.TOCTOUConfig
	// AttackStrategy selects FileObserver vs wait-and-see.
	AttackStrategy = attack.Strategy
	// DMSymlinkAttack is the Download Manager TOCTOU attack.
	DMSymlinkAttack = attack.DMSymlink
	// RedirectAttack is the redirect-Intent attack.
	RedirectAttack = attack.Redirect
	// RedirectConfig parameterizes a redirect attack.
	RedirectConfig = attack.RedirectConfig
	// HareAttack is the hanging-permission escalation.
	HareAttack = attack.HareEscalation
)

// Attack strategies.
const (
	StrategyFileObserver = attack.StrategyFileObserver
	StrategyWaitAndSee   = attack.StrategyWaitAndSee
)

// DeployMalware plants the adversary's app on a device.
func DeployMalware(dev *Device, pkg string) (*Malware, error) { return attack.DeployMalware(dev, pkg) }

// NewTOCTOU prepares an installation hijack.
func NewTOCTOU(mal *Malware, cfg TOCTOUConfig, orig *APK) *TOCTOUAttack {
	return attack.NewTOCTOU(mal, cfg, orig)
}

// AttackConfigForStore derives the attacker's per-store knowledge.
func AttackConfigForStore(prof InstallerProfile, strategy AttackStrategy) TOCTOUConfig {
	return attack.ConfigForStore(prof, strategy)
}

// NewDMSymlink prepares the DM symlink attack.
func NewDMSymlink(mal *Malware) (*DMSymlinkAttack, error) { return attack.NewDMSymlink(mal) }

// NewRedirect prepares a redirect-Intent attack.
func NewRedirect(mal *Malware, cfg RedirectConfig) *RedirectAttack {
	return attack.NewRedirect(mal, cfg)
}

// NewHareEscalation prepares the hanging-permission escalation.
func NewHareEscalation(mal *Malware, harePerm, victimPkg string) *HareAttack {
	return attack.NewHareEscalation(mal, harePerm, victimPkg)
}

// CertifigateAttack is the vulnerable-system-app escalation (TeamViewer).
type CertifigateAttack = attack.Certifigate

// NewCertifigate prepares the vulnerable-system-app escalation.
func NewCertifigate(mal *Malware, victimPkg string) *CertifigateAttack {
	return attack.NewCertifigate(mal, victimPkg)
}

// Defenses.
type (
	// DAPP is the user-level protection app.
	DAPP = defense.DAPP
	// DAPPAlert is one DAPP detection.
	DAPPAlert = defense.Alert
)

// DeployDAPP installs the DAPP defense watching the given staging dirs.
func DeployDAPP(dev *Device, watchDirs []string) (*DAPP, error) {
	return defense.Deploy(dev, watchDirs)
}

// EnableFUSEPatch turns the Section V-C FUSE DAC scheme on or off.
func EnableFUSEPatch(dev *Device, on bool) { dev.Fuse.SetPatched(on) }

// EnableIntentDetection toggles the redirect-Intent detection scheme.
func EnableIntentDetection(dev *Device, on bool) { dev.AMS.Firewall().EnableDetection(on) }

// EnableIntentOrigin toggles Intent origin stamping.
func EnableIntentOrigin(dev *Device, on bool) { dev.AMS.Firewall().EnableOrigin(on) }

// Measurement study.
type (
	// Corpus is the synthetic measurement population.
	Corpus = corpus.Corpus
	// CorpusConfig seeds and scales a corpus.
	CorpusConfig = corpus.Config
	// AppMeta is the static-analysis view of one app.
	AppMeta = corpus.AppMeta
	// Classification aggregates classifier verdicts.
	Classification = measure.Classification
)

// GenerateCorpus builds a calibrated synthetic corpus.
func GenerateCorpus(cfg CorpusConfig) *Corpus { return corpus.Generate(cfg) }

// ClassifyInstallers runs the Section IV classifier over a population.
func ClassifyInstallers(apps []AppMeta) Classification { return measure.ClassifyAll(apps) }

// BuildAPKForMeta materializes ground truth as an APK artifact with
// synthetic smali carrying the code-level markers.
func BuildAPKForMeta(meta AppMeta) *APK { return corpus.BuildAPKFor(meta) }

// ExtractedMeta is the scanner's view of one APK artifact.
type ExtractedMeta = measure.ExtractedMeta

// ExtractAPKMeta runs the Section IV-A scanner (marker search + def-use
// resolution) over an APK artifact.
func ExtractAPKMeta(a *APK) ExtractedMeta { return measure.ExtractMeta(a) }

// Static-analysis engine.
type (
	// Finding is one lint-rule hit with class/method/line provenance.
	Finding = analysis.Finding
	// LintRule is one pluggable GIA detector.
	LintRule = analysis.Rule
	// ScanStats aggregates a corpus scan: per-rule hit counts, coverage
	// and throughput.
	ScanStats = analysis.ScanStats
)

// LintRules returns the default GIA rule set (sdcard staging,
// world-readable staging, install API, market redirects, reflection
// obfuscation).
func LintRules() []LintRule { return analysis.DefaultRules() }

// LintAPK runs the analysis engine — smali IR, control-flow graphs,
// reaching definitions, lint rules — over an APK artifact's embedded code
// and returns the findings.
func LintAPK(a *APK) []Finding { return analysis.NewEngine().ScanAPK(a).Findings }

// ScanCorpusArtifacts materializes and scans a population on a parallel
// worker pool (workers <= 0 selects NumCPU), returning per-app extracted
// features plus aggregate scan statistics. Analyses are served from a
// shared content-addressed cache keyed on canonicalized smali, so
// template-identical apps are analyzed once; the returned stats carry the
// hit/miss/dedup split. Use measure.ScanArtifactsOpts to opt out.
func ScanCorpusArtifacts(apps []AppMeta, workers int) ([]ExtractedMeta, ScanStats) {
	return measure.ScanArtifacts(apps, workers)
}

// NewTimeline records dev's merged event timeline — filesystem events
// under dirs, package changes and IntentFirewall alerts — onto a fresh
// virtual-time track bound to dev's clock: the textual equivalent of the
// paper's attack demos. Merge an AIT in with InstallResult.Record once it
// completes, and add other events (DAPP alerts) with the track's Instant.
// stop closes the filesystem watches.
func NewTimeline(dev *Device, dirs ...string) (k *ObsTrack, stop func(), err error) {
	k = new(ObsTrack)
	k.SetClock(dev.Sched.Now)
	if stop, err = dev.Record(k, dirs...); err != nil {
		return nil, nil, err
	}
	return k, stop, nil
}

// WriteTimeline renders a timeline track as text, one line per event in
// start-time order.
func WriteTimeline(w io.Writer, k *ObsTrack) error { return obs.WriteText(w, k.Sorted()) }

// Experiments.
type (
	// ExperimentTable is one rendered result table.
	ExperimentTable = experiment.Table
	// ExperimentOptions configures a full sweep.
	ExperimentOptions = experiment.Options
	// Scenario is a ready-made device + store + malware fixture.
	Scenario = experiment.Scenario
)

// AllTables regenerates every paper table and figure.
func AllTables(opts ExperimentOptions) ([]ExperimentTable, error) {
	return experiment.AllTables(opts)
}

// WriteReport renders a full markdown reproduction report for the tables.
func WriteReport(w io.Writer, opts ExperimentOptions, tables []ExperimentTable) error {
	return experiment.WriteReport(w, opts, tables)
}

// NewScenario builds a device + store + target + malware fixture.
func NewScenario(prof InstallerProfile, seed int64) (*Scenario, error) {
	return experiment.NewScenario(prof, seed)
}

// NewScenarioPayload is NewScenario with a caller-chosen target payload; a
// payload above one 64 KiB chunk makes the staged download multi-chunk.
// The payload must not be modified after the call: a later call with the
// same buffer reuses the target built from its bytes.
func NewScenarioPayload(prof InstallerProfile, seed int64, payload []byte) (*Scenario, error) {
	return experiment.NewScenarioPayload(prof, seed, payload)
}

// HijackStudyTable runs both hijack strategies against every store.
func HijackStudyTable(seed int64) (ExperimentTable, error) { return experiment.HijackTable(seed) }

// DefenseMatrixTable regenerates Table VII (defense effectiveness & LOC).
func DefenseMatrixTable(seed int64) (ExperimentTable, error) { return experiment.TableVII(seed) }

// RedirectStudyTable runs the redirect attack under each Intent defense.
func RedirectStudyTable(seed int64) (ExperimentTable, error) { return experiment.RedirectTable(seed) }

// DMStudyTable runs the DM symlink attack across the three policies.
func DMStudyTable(seed int64) (ExperimentTable, error) { return experiment.DMTable(seed) }

// Figure1Table traces the AIT steps per store profile.
func Figure1Table(seed int64) (ExperimentTable, error) { return experiment.Figure1(seed) }

// Ablation sweeps (extensions beyond the paper's tables).
type (
	// SweepPoint is one configuration of an ablation sweep.
	SweepPoint = experiment.SweepPoint
	// ThresholdOutcome is one detection-threshold configuration.
	ThresholdOutcome = experiment.ThresholdOutcome
)

// ReactionLatencySweep ablates hijack success vs attacker reaction latency.
// workers bounds the trial pool (<= 0 selects NumCPU); results are
// identical for any pool size.
func ReactionLatencySweep(prof InstallerProfile, latencies []time.Duration, trials int, seed int64, workers int) ([]SweepPoint, error) {
	return experiment.ReactionLatencySweep(prof, latencies, trials, seed, workers)
}

// WaitDelaySweep ablates wait-and-see success vs the pre-measured delay.
func WaitDelaySweep(prof InstallerProfile, delays []time.Duration, trials int, seed int64, workers int) ([]SweepPoint, error) {
	return experiment.WaitDelaySweep(prof, delays, trials, seed, workers)
}

// DMGapSweep ablates the 6.0 DM policy's exposure vs the check-to-use gap.
func DMGapSweep(gaps []time.Duration, maxTries, trials int, seed int64, workers int) ([]SweepPoint, error) {
	return experiment.DMGapSweep(gaps, maxTries, trials, seed, workers)
}

// DetectionThresholdSweep ablates the IntentFirewall's detection window.
func DetectionThresholdSweep(thresholds []time.Duration, seed int64, workers int) ([]ThresholdOutcome, error) {
	return experiment.DetectionThresholdSweep(thresholds, seed, workers)
}

// AttackVector is one entry of the attack-surface survey.
type AttackVector = experiment.Vector

// SurveyAttackSurface enumerates the GIA vectors applicable to a device
// configuration (the assessment step before live attacks).
func SurveyAttackSurface(profiles []InstallerProfile, dmPolicy dm.SymlinkPolicy) []AttackVector {
	return experiment.Survey(profiles, dmPolicy)
}

// SurfaceTable renders the survey as a table.
func SurfaceTable(profiles []InstallerProfile, dmPolicy dm.SymlinkPolicy) ExperimentTable {
	return experiment.SurfaceTable(profiles, dmPolicy)
}

// FleetStudyTable scales the hijack across a device fleet, fanning devices
// out on a worker pool of the given size (<= 0 selects NumCPU).
func FleetStudyTable(devicesPerStore int, seed int64, workers int) (ExperimentTable, error) {
	return experiment.FleetTable(devicesPerStore, seed, workers)
}

// MeasurementTables regenerates the corpus-based tables (II, III, IV, VI,
// key study, Hare study).
func MeasurementTables(c *Corpus) []ExperimentTable {
	return []ExperimentTable{
		experiment.TableII(c), experiment.TableIII(c), experiment.TableIV(c),
		experiment.TableVI(c), experiment.KeyStudy(c), experiment.HareStudy(c),
	}
}

// Chaos harness: schedule exploration and fault injection.
type (
	// ChaosExplorer enumerates same-instant event orderings, sweeps
	// seed × jitter grids and minimizes invariant violations to replay
	// tokens.
	ChaosExplorer = chaos.Explorer
	// ChaosSchedule names one deterministic execution (seed, jitter,
	// arbiter choices); its Token method is the replay string.
	ChaosSchedule = chaos.Schedule
	// ChaosRun is the harness's handle passed to each explored execution.
	ChaosRun = chaos.Run
	// ChaosResult summarises an exploration or sweep.
	ChaosResult = chaos.Result
	// ChaosViolation is one schedule on which an invariant failed.
	ChaosViolation = chaos.Violation
	// FaultPlan injects deterministic faults (I/O errors, delays, drops,
	// duplicates, truncations) at the substrates' named sites.
	FaultPlan = chaos.FaultPlan
	// FaultRule is one declarative fault of a FaultPlan.
	FaultRule = chaos.Rule
	// FaultSite names an injection point (see the FaultSite* constants).
	FaultSite = fault.Site
	// FaultKind is a fault category (see the Fault* kind constants).
	FaultKind = fault.Kind
)

// ChaosDefaultDumpDepth is how many trailing events a violation dump
// keeps when no explicit flight-recorder depth is configured.
const ChaosDefaultDumpDepth = chaos.DefaultDumpDepth

// Fault injection sites.
const (
	FaultSiteSimEvent        = fault.SiteSimEvent
	FaultSiteVFSOpen         = fault.SiteVFSOpen
	FaultSiteVFSRead         = fault.SiteVFSRead
	FaultSiteVFSWrite        = fault.SiteVFSWrite
	FaultSiteVFSRename       = fault.SiteVFSRename
	FaultSiteDMFetch         = fault.SiteDMFetch
	FaultSiteDMChunk         = fault.SiteDMChunk
	FaultSiteFuseCheck       = fault.SiteFuseCheck
	FaultSiteIntentDeliver   = fault.SiteIntentDeliver
	FaultSiteIntentBroadcast = fault.SiteIntentBroadcast
)

// Fault kinds.
const (
	FaultError     = fault.KindError
	FaultDelay     = fault.KindDelay
	FaultDrop      = fault.KindDrop
	FaultDuplicate = fault.KindDuplicate
	FaultTruncate  = fault.KindTruncate
)

// NewFaultPlan builds a deterministic fault plan from rules.
func NewFaultPlan(seed int64, rules ...FaultRule) *FaultPlan {
	return chaos.NewFaultPlan(seed, rules...)
}

// ParseChaosToken decodes a replay token back into a schedule.
func ParseChaosToken(tok string) (ChaosSchedule, error) { return chaos.ParseToken(tok) }

// InstrumentScenario attaches a chaos run to a scenario's scheduler and
// every fault-capable substrate; call it before driving the clock.
func InstrumentScenario(s *Scenario, r *ChaosRun) { s.Instrument(r) }

// ChaosExplorationTable runs the schedule-exploration study over the TOCTOU
// race: exhaustive orderings, seed × jitter sweeps with and without the
// FUSE patch, and a truncated-download fault minimized to a replay token.
func ChaosExplorationTable(seed int64, workers int) (ExperimentTable, error) {
	return experiment.ChaosTable(seed, workers)
}

// Observability: dual-clock tracing and a metrics registry (internal/obs).
// Spans and instants live on tracks, each bound to one clock domain —
// virtual (the simulated device clock) or wall (a real monotonic
// stopwatch) — and export as Chrome trace-event JSON (WriteChrome, open in
// chrome://tracing or Perfetto), JSONL (WriteJSONL) or a text snapshot
// (Snapshot().WriteText). All hooks are nil-safe: a nil registry, trace,
// track or metric disables that instrument at zero cost.
type (
	// ObsRegistry is a process-wide registry of named counters, gauges and
	// histograms.
	ObsRegistry = obs.Registry
	// ObsTrace is a collection of spans and instants across tracks.
	ObsTrace = obs.Trace
	// ObsTrack is one named lane of trace events in one clock domain.
	ObsTrack = obs.Track
	// ObsSnapshot is a point-in-time, deterministic view of a registry.
	ObsSnapshot = obs.Snapshot
	// ObsEvent is one recorded span or instant on a track.
	ObsEvent = obs.Event
)

// NewObsRegistry creates an empty metrics registry.
func NewObsRegistry() *ObsRegistry { return obs.NewRegistry() }

// NewObsTrace creates an empty trace whose wall-clock domain reads a real
// monotonic stopwatch. Call SetWallClock(nil) for deterministic
// (virtual-only) traces that are byte-identical across worker counts.
func NewObsTrace() *ObsTrace { return obs.NewTrace() }

// InstrumentDevice hooks a device's scheduler onto the registry — counters
// "sim.events.scheduled", "sim.events.dispatched", "sim.events.cancelled"
// and gauge "sim.queue.depth" — and, when track is non-nil, emits one
// virtual-time dispatch instant per event. Either argument may be nil.
func InstrumentDevice(dev *Device, reg *ObsRegistry, track *ObsTrack) {
	m := sim.Metrics{Track: track}
	if reg != nil {
		m.Scheduled = reg.Counter("sim.events.scheduled")
		m.Dispatched = reg.Counter("sim.events.dispatched")
		m.Cancelled = reg.Counter("sim.events.cancelled")
		m.Depth = reg.Gauge("sim.queue.depth")
	}
	dev.Sched.Instrument(m)
}

// InstrumentWorkerPool installs process-wide telemetry on the shared par
// worker pool: counters "par.tasks" and "par.busy_ns", gauges "par.queued"
// and "par.busy", histogram "par.job_ns", per-worker wall-clock trace
// tracks ("par/worker-K"), and — when pprofLabels is set — a "par.worker"
// pprof label on every worker goroutine so CPU profiles split by worker.
// Wall telemetry is schedule-dependent; leave tr nil for deterministic
// runs. Passing all-zero arguments uninstalls the instrumentation.
func InstrumentWorkerPool(reg *ObsRegistry, tr *ObsTrace, pprofLabels bool) {
	if reg == nil && tr == nil && !pprofLabels {
		par.SetInstrumentation(nil)
		return
	}
	in := &par.Instrumentation{Trace: tr, PprofLabels: pprofLabels}
	if reg != nil {
		in.Tasks = reg.Counter("par.tasks")
		in.Queued = reg.Gauge("par.queued")
		in.Busy = reg.Gauge("par.busy")
		in.BusyNS = reg.Counter("par.busy_ns")
		in.JobNS = reg.Histogram("par.job_ns", obs.DurationBuckets())
		in.Clock = obs.Stopwatch()
	}
	par.SetInstrumentation(in)
}

// ObserveAnalysisCache re-homes the shared analysis engines' telemetry
// (scan counters plus the analysis and summary memo caches) onto reg, so
// corpus scans via ScanCorpusArtifacts / ClassifyInstallers surface their
// cache behaviour. A nil registry is a no-op.
func ObserveAnalysisCache(reg *ObsRegistry) { measure.ObserveSharedEngines(reg) }
