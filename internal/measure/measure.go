// Package measure reimplements the Section IV measurement tooling: the
// artifact scan behind the lightweight installer classifier (built on the
// world-readable observation after the Flowdroid-based attempt failed),
// its tally and the market-redirection census over the scanned features,
// the flow-analysis comparison, and the INSTALL_PACKAGES census, the
// platform-key usage study and the Hare (hanging-permission) cross-image
// search, which read the generator's planted metadata.
package measure

import (
	"fmt"
	"sort"

	"github.com/ghost-installer/gia/internal/corpus"
)

// Category is the classifier's verdict for one app.
type Category int

// Classifier verdicts.
const (
	// NotInstaller: the app contains no installation API call.
	NotInstaller Category = iota
	// PotentiallyVulnerable: calls installation APIs, operates on
	// /sdcard, and never sets the staged APK world-readable.
	PotentiallyVulnerable
	// PotentiallySecure: does not use /sdcard and sets the staged APK
	// world-readable (internal staging).
	PotentiallySecure
	// Unknown: an installer whose storage behaviour the lightweight
	// analysis cannot pin down.
	Unknown
)

func (c Category) String() string {
	switch c {
	case NotInstaller:
		return "not-installer"
	case PotentiallyVulnerable:
		return "potentially-vulnerable"
	case PotentiallySecure:
		return "potentially-secure"
	case Unknown:
		return "unknown"
	default:
		return fmt.Sprintf("category(%d)", int(c))
	}
}

// decided reports whether the verdict pins the storage behaviour down.
func (c Category) decided() bool { return c == PotentiallyVulnerable || c == PotentiallySecure }

// Classify is the classifier's verdict on an app's planted ground truth:
// the flow study's ground-truth row and the tests' oracle for the scan.
func Classify(app corpus.AppMeta) Category {
	if !app.HasInstallAPI {
		return NotInstaller
	}
	switch app.Storage {
	case corpus.StorageSDCard:
		return PotentiallyVulnerable
	case corpus.StorageInternalWorldReadable:
		return PotentiallySecure
	default:
		return Unknown
	}
}

// Classification aggregates verdicts over a population (Tables II and III).
type Classification struct {
	Total         int // population size
	Installers    int // apps with installation API calls
	Vulnerable    int
	Secure        int
	Unknown       int
	WriteExternal int // apps requesting WRITE_EXTERNAL_STORAGE
}

// Tally counts a scanned population's classifier verdicts.
func Tally(metas []ExtractedMeta) Classification {
	c := Classification{Total: len(metas)}
	for _, m := range metas {
		if m.UsesWriteExternal {
			c.WriteExternal++
		}
		switch ClassifyExtracted(m) {
		case NotInstaller:
			continue
		case PotentiallyVulnerable:
			c.Vulnerable++
		case PotentiallySecure:
			c.Secure++
		case Unknown:
			c.Unknown++
		}
		c.Installers++
	}
	return c
}

// Known returns installers whose storage behaviour was determined.
func (c Classification) Known() int { return c.Vulnerable + c.Secure }

// VulnerableFracKnown is the "excluding unknown apps" ratio.
func (c Classification) VulnerableFracKnown() float64 {
	if c.Known() == 0 {
		return 0
	}
	return float64(c.Vulnerable) / float64(c.Known())
}

// SecureFracKnown is the secure share among known installers.
func (c Classification) SecureFracKnown() float64 {
	if c.Known() == 0 {
		return 0
	}
	return float64(c.Secure) / float64(c.Known())
}

// VulnerableFracAll / SecureFracAll are the "including unknown" ratios.
func (c Classification) VulnerableFracAll() float64 {
	if c.Installers == 0 {
		return 0
	}
	return float64(c.Vulnerable) / float64(c.Installers)
}

// SecureFracAll is the secure share including unknowns.
func (c Classification) SecureFracAll() float64 {
	if c.Installers == 0 {
		return 0
	}
	return float64(c.Secure) / float64(c.Installers)
}

// UniquePreinstalled deduplicates pre-installed apps by package name across
// images — the paper's 12,050 → 1,613 reduction.
func UniquePreinstalled(images []corpus.FactoryImage) []corpus.AppMeta {
	seen := make(map[string]corpus.AppMeta)
	for _, img := range images {
		for _, app := range img.Apps {
			if _, ok := seen[app.Package]; !ok {
				seen[app.Package] = app
			}
		}
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]corpus.AppMeta, 0, len(names))
	for _, name := range names {
		out = append(out, seen[name])
	}
	return out
}

// VendorInstallCensus is one Table VI row.
type VendorInstallCensus struct {
	Vendor          string
	Images          int
	AvgSystemApps   float64
	AvgWithInstall  float64
	InstallPkgRatio float64
}

// InstallPackagesCensus reproduces Table VI: average number of system apps
// per image and the share holding INSTALL_PACKAGES, per vendor.
func InstallPackagesCensus(images []corpus.FactoryImage) []VendorInstallCensus {
	type acc struct {
		images  int
		apps    int
		install int
	}
	byVendor := make(map[string]*acc)
	for _, img := range images {
		a := byVendor[img.Vendor]
		if a == nil {
			a = &acc{}
			byVendor[img.Vendor] = a
		}
		a.images++
		a.apps += len(img.Apps)
		for _, app := range img.Apps {
			if app.UsesInstallPkgs {
				a.install++
			}
		}
	}
	vendors := make([]string, 0, len(byVendor))
	for v := range byVendor {
		vendors = append(vendors, v)
	}
	sort.Strings(vendors)
	out := make([]VendorInstallCensus, 0, len(vendors))
	for _, v := range vendors {
		a := byVendor[v]
		row := VendorInstallCensus{
			Vendor:         v,
			Images:         a.images,
			AvgSystemApps:  float64(a.apps) / float64(a.images),
			AvgWithInstall: float64(a.install) / float64(a.images),
		}
		if a.apps > 0 {
			row.InstallPkgRatio = float64(a.install) / float64(a.apps)
		}
		out = append(out, row)
	}
	return out
}

// RedirectBuckets reproduces Table IV: how many apps hard-code exactly one,
// at most two, four or eight market links, plus the overall redirecting
// share.
type RedirectBuckets struct {
	Total       int
	Redirecting int // >= 1 hard-coded link
	Exactly1    int
	AtMost2     int
	AtMost4     int
	AtMost8     int
}

// RedirectCensus buckets a scanned population's hard-coded market links.
func RedirectCensus(metas []ExtractedMeta) RedirectBuckets {
	b := RedirectBuckets{Total: len(metas)}
	for _, m := range metas {
		n := m.MarketLinks
		if n == 0 {
			continue
		}
		b.Redirecting++
		if n == 1 {
			b.Exactly1++
		}
		if n <= 2 {
			b.AtMost2++
		}
		if n <= 4 {
			b.AtMost4++
		}
		if n <= 8 {
			b.AtMost8++
		}
	}
	return b
}

// VendorKeyUsage is one row of the platform-key study.
type VendorKeyUsage struct {
	Vendor           string
	DistinctKeys     int     // platform keys observed across the vendor's images
	AvgPerDevice     float64 // platform-signed apps per image
	DistinctTotal    int     // distinct platform-signed packages overall
	StoreAppsWithKey int     // appstore apps signed with the platform key
}

// PlatformKeyStudy reproduces the Section IV key findings: one platform key
// per vendor, the per-device and total platform-signed app counts, and the
// platform-signed apps found in public appstores.
func PlatformKeyStudy(c *corpus.Corpus) []VendorKeyUsage {
	type acc struct {
		keys     map[string]bool
		images   int
		signed   int
		packages map[string]bool
	}
	byVendor := make(map[string]*acc)
	for _, img := range c.Images {
		a := byVendor[img.Vendor]
		if a == nil {
			a = &acc{keys: make(map[string]bool), packages: make(map[string]bool)}
			byVendor[img.Vendor] = a
		}
		a.images++
		for _, app := range img.Apps {
			if !app.Platform {
				continue
			}
			a.keys[app.Signer] = true
			a.signed++
			a.packages[app.Package] = true
		}
	}
	storeByVendor := make(map[string]int)
	for _, app := range c.StoreApps {
		if app.Platform {
			storeByVendor[app.Vendor]++
		}
	}
	vendors := make([]string, 0, len(byVendor))
	for v := range byVendor {
		vendors = append(vendors, v)
	}
	sort.Strings(vendors)
	out := make([]VendorKeyUsage, 0, len(vendors))
	for _, v := range vendors {
		a := byVendor[v]
		out = append(out, VendorKeyUsage{
			Vendor:           v,
			DistinctKeys:     len(a.keys),
			AvgPerDevice:     float64(a.signed) / float64(a.images),
			DistinctTotal:    len(a.packages),
			StoreAppsWithKey: storeByVendor[v],
		})
	}
	return out
}

// FlowResult summarizes the Section IV-A comparison between heavyweight
// taint analysis and the lightweight world-readable classifier.
type FlowResult struct {
	Sampled            int
	IncompleteCFG      int
	HandlerIndirection int
	AnalyzerBugs       int
	FlowAnalyzable     int
	// ClassifierDecided counts the same sample's apps the lightweight
	// classifier reached a verdict on (vulnerable or secure).
	ClassifierDecided int
}

// FlowFailureRate is the share of the sample flow analysis could not handle.
func (r FlowResult) FlowFailureRate() float64 {
	if r.Sampled == 0 {
		return 0
	}
	return float64(r.Sampled-r.FlowAnalyzable) / float64(r.Sampled)
}

// FlowAnalysisStudy replays the paper's attempt to use information-flow
// analysis to find SD-card installers: it samples the first sample
// installer-capable apps (the paper tested 43) and tallies the failure
// modes, then the lightweight classifier's verdicts on the same sample.
// The failure modes come from ground truth in both rows (the paper could
// only tally Flowdroid's failures post mortem). The truth row classifies
// the planted metadata; the artifact row classifies scanned, the
// population's extracted features index-aligned with apps. The rows
// agreeing is the study's point.
func FlowAnalysisStudy(apps []corpus.AppMeta, scanned []ExtractedMeta, sample int) (truth, artifact FlowResult) {
	decided := 0
	for i, app := range apps {
		if !app.HasInstallAPI {
			continue
		}
		if truth.Sampled >= sample {
			break
		}
		truth.Sampled++
		switch app.Blocker {
		case corpus.BlockerIncompleteCFG:
			truth.IncompleteCFG++
		case corpus.BlockerHandlerIndirection:
			truth.HandlerIndirection++
		case corpus.BlockerAnalyzerBug:
			truth.AnalyzerBugs++
		default:
			truth.FlowAnalyzable++
		}
		if Classify(app).decided() {
			truth.ClassifierDecided++
		}
		if ClassifyExtracted(scanned[i]).decided() {
			decided++
		}
	}
	artifact = truth
	artifact.ClassifierDecided = decided
	return truth, artifact
}

// HareResult summarizes the hanging-permission study.
type HareResult struct {
	SeedApps        int // apps using permissions they do not define (from the seed images)
	ImagesSearched  int
	VulnerableCases int // (image, app) pairs where the permission is undefined
	AvgPerImage     float64
}

// HareStudy extracts hare-seed candidates from the first seedImages images
// (the paper used 10 Samsung images), then searches every image for cases
// where a seed app is present but nothing defines the permission it uses.
func HareStudy(images []corpus.FactoryImage, seedImages int) HareResult {
	if seedImages > len(images) {
		seedImages = len(images)
	}
	// Candidate permissions: used-but-not-defined within the seed images.
	seedPerms := make(map[string]bool)
	seedApps := make(map[string]bool)
	for _, img := range images[:seedImages] {
		defined := make(map[string]bool)
		for _, app := range img.Apps {
			for _, p := range app.DefinesPerms {
				defined[p] = true
			}
		}
		for _, app := range img.Apps {
			for _, p := range app.UsesPerms {
				if !defined[p] {
					seedPerms[p] = true
					seedApps[app.Package] = true
				}
			}
		}
	}
	var res HareResult
	res.SeedApps = len(seedApps)
	res.ImagesSearched = len(images)
	for _, img := range images {
		defined := make(map[string]bool)
		for _, app := range img.Apps {
			for _, p := range app.DefinesPerms {
				defined[p] = true
			}
		}
		for _, app := range img.Apps {
			for _, p := range app.UsesPerms {
				if seedPerms[p] && !defined[p] {
					res.VulnerableCases++
				}
			}
		}
	}
	if res.ImagesSearched > 0 {
		res.AvgPerImage = float64(res.VulnerableCases) / float64(res.ImagesSearched)
	}
	return res
}
