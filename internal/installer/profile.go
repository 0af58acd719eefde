// Package installer implements the App Installation Transaction (AIT) as
// real installer apps implement it: per-store behavioural profiles whose
// parameters — storage choice, name randomization, number of verification
// reads, check-to-install gap, re-download policy, exposed interfaces — are
// taken from the paper's analysis of Amazon, Xiaomi, Baidu, Qihoo360,
// DTIgnite, SlideMe, Google Play and ordinary self-updating apps.
package installer

import (
	"fmt"
	"slices"
	"time"
)

// StorageChoice selects where the installer stages the downloaded APK.
type StorageChoice int

// Staging locations.
const (
	// StorageSDCard stages on shared external storage — the choice of
	// every major third-party store (Section II) and the GIA root cause.
	StorageSDCard StorageChoice = iota + 1
	// StorageInternal stages in the installer's private directory, made
	// world-readable so the PMS can open it.
	StorageInternal
)

// ReceiverAuth describes how the store's push receiver authenticates
// command messages.
type ReceiverAuth int

// Receiver authentication modes.
const (
	// ReceiverNone: the store has no push receiver.
	ReceiverNone ReceiverAuth = iota
	// ReceiverUnauthenticated: exported receiver, no sender check — the
	// Xiaomi appstore flaw (Section III-D).
	ReceiverUnauthenticated
	// ReceiverGuarded: the receiver is protected by a signature
	// permission (the paper's suggested fix).
	ReceiverGuarded
)

// Profile is one installer's AIT implementation.
type Profile struct {
	Package   string
	Label     string
	StoreHost string

	// Silent installers hold INSTALL_PACKAGES and call the PMS directly;
	// others go through the PIA consent dialog.
	Silent bool
	// Storage selects SD card vs internal staging.
	Storage StorageChoice
	// StagingDir is the (stable) directory used for downloads. The paper
	// notes directories are rarely randomized even when names are.
	StagingDir string
	// RandomizeNames gives each staged APK a random file name (Amazon).
	RandomizeNames bool
	// TempNameRename downloads under a temporary name and renames to the
	// official one on completion (Xiaomi) — itself a completion signal.
	TempNameRename bool

	// HashCheck verifies the downloaded content digest against the
	// store's metadata before installing.
	HashCheck bool
	// VerifyReads is how many times the verifier opens and reads the
	// staged file — the CLOSE_NOWRITE fingerprint the FileObserver
	// attacker counts (Amazon 7, Qihoo360 3, Baidu 2, Xiaomi 1).
	VerifyReads int
	// VerifyReadTime is the virtual duration of one verification read.
	VerifyReadTime time.Duration
	// GapMin/GapMax bound the window between verification completion and
	// the PMS/PIA opening the file.
	GapMin, GapMax time.Duration
	// Redownloads is how many times a failed hash check triggers a
	// transparent re-download (giving the attacker another try).
	Redownloads int

	// UseManifestVerification routes the install through
	// installPackageWithVerification (new Amazon appstore).
	UseManifestVerification bool
	// UseSignatureVerification is the paper's Section V-A fix: record the
	// APK's signer certificate at download completion and have the PMS
	// verify it at install time. Replacements with a foreign signature —
	// including same-manifest repackages — are rejected.
	UseSignatureVerification bool
	// UseDM downloads through the system Download Manager (DTIgnite)
	// instead of the store's own HTTP stack.
	UseDM bool
	// DialogMin/DialogMax bound the PIA consent-dialog duration for
	// non-silent installers.
	DialogMin, DialogMax time.Duration

	// JSBridge exposes a WebView JavaScript-to-Java bridge on the store's
	// main activity that executes install/uninstall commands from Intent
	// extras without authenticating the sender (Amazon Venezia).
	JSBridge bool
	// JSBridgeSanitized applies the paper's fix: payload sanitization and
	// a capability-limited bridge.
	JSBridgeSanitized bool
	// PushAuth describes the store's cloud-push receiver.
	PushAuth ReceiverAuth
	// DRMSelfCheck makes the store app validate its own signing identity
	// at startup (Amazon's DRM).
	DRMSelfCheck bool

	// The two Section VII developer suggestions:
	//
	// PreferInternal (Suggestion 1) stages in the installer's private
	// internal storage whenever the device has room for the APK twice
	// (staging copy + code image), falling back to the SD card only when
	// space is short.
	PreferInternal bool
	// SecureVerify (Suggestion 2) copies the downloaded APK into the
	// installer's private internal directory immediately after download
	// and verifies + installs from that secure copy, closing the
	// check-to-install window on shared storage.
	SecureVerify bool
}

// Hardened returns a copy of prof with the Section VII suggestions applied:
// prefer internal staging when space allows, and verify the hash on a
// private copy right before installation otherwise.
func Hardened(prof Profile) Profile {
	prof.PreferInternal = true
	prof.SecureVerify = true
	return prof
}

// Store profiles measured in the paper. Timing parameters are calibrated so
// the wait-and-see delays match Section III-B: DTIgnite ≈ 2 s after
// download completion, Amazon and Baidu ≈ 500 ms.
func Amazon() Profile {
	return Profile{
		Package: "com.amazon.venezia", Label: "Amazon Appstore",
		StoreHost: "mas.amazon.com",
		Silent:    true, Storage: StorageSDCard,
		StagingDir:     "/sdcard/amazon_appstore",
		RandomizeNames: true,
		HashCheck:      true, VerifyReads: 7, VerifyReadTime: 65 * time.Millisecond,
		GapMin: 120 * time.Millisecond, GapMax: 200 * time.Millisecond,
		Redownloads:  2,
		JSBridge:     true,
		DRMSelfCheck: true,
	}
}

// AmazonV2 is the post-May-2015 Amazon appstore
// (17.0000.893.3C_647000010): same AIT plus installPackageWithVerification
// and DRM self-checking.
func AmazonV2() Profile {
	p := Amazon()
	p.UseManifestVerification = true
	return p
}

// Xiaomi is the Xiaomi appstore: one verification read, temp-name rename on
// completion, unauthenticated cloud-push receiver.
func Xiaomi() Profile {
	return Profile{
		Package: "com.xiaomi.market", Label: "Mi Store",
		StoreHost: "app.mi.com",
		Silent:    true, Storage: StorageSDCard,
		StagingDir:     "/sdcard/MiMarket/download",
		TempNameRename: true,
		HashCheck:      true, VerifyReads: 1, VerifyReadTime: 120 * time.Millisecond,
		GapMin: 20 * time.Millisecond, GapMax: 60 * time.Millisecond,
		Redownloads: 2,
		PushAuth:    ReceiverUnauthenticated,
	}
}

// Baidu is the Baidu appstore: two verification reads.
func Baidu() Profile {
	return Profile{
		Package: "com.baidu.appsearch", Label: "Baidu App Store",
		StoreHost: "appstore.baidu.com",
		Silent:    true, Storage: StorageSDCard,
		StagingDir: "/sdcard/baidu/AppSearch/downloads",
		HashCheck:  true, VerifyReads: 2, VerifyReadTime: 220 * time.Millisecond,
		GapMin: 120 * time.Millisecond, GapMax: 200 * time.Millisecond,
		Redownloads: 2,
	}
}

// Qihoo360 is the Qihoo 360 mobile assistant: three verification reads.
func Qihoo360() Profile {
	return Profile{
		Package: "com.qihoo.appstore", Label: "360 Mobile Assistant",
		StoreHost: "app.360.cn",
		Silent:    true, Storage: StorageSDCard,
		StagingDir: "/sdcard/360Download",
		HashCheck:  true, VerifyReads: 3, VerifyReadTime: 150 * time.Millisecond,
		GapMin: 20 * time.Millisecond, GapMax: 70 * time.Millisecond,
		Redownloads: 2,
	}
}

// DTIgnite is the carrier bloatware pusher: downloads through the system
// Download Manager to /sdcard/DTIgnite and installs silently about two
// seconds after the download completes.
func DTIgnite() Profile {
	return Profile{
		Package: "com.dti.ignite", Label: "DT Ignite",
		StoreHost: "cdn.digitalturbine.com",
		Silent:    true, Storage: StorageSDCard,
		StagingDir: "/sdcard/DTIgnite",
		UseDM:      true,
		HashCheck:  true, VerifyReads: 2, VerifyReadTime: 180 * time.Millisecond,
		GapMin: 1750 * time.Millisecond, GapMax: 2100 * time.Millisecond,
		Redownloads: 1,
	}
}

// SlideMe is the SlideMe market, installed by users as a non-system app, so
// installs go through the PIA consent dialog.
func SlideMe() Profile {
	return Profile{
		Package: "com.slideme.sam.manager", Label: "SlideME Market",
		StoreHost: "slideme.org",
		Silent:    false, Storage: StorageSDCard,
		StagingDir: "/sdcard/slideme",
		HashCheck:  true, VerifyReads: 2, VerifyReadTime: 150 * time.Millisecond,
		GapMin: 10 * time.Millisecond, GapMax: 40 * time.Millisecond,
		DialogMin: 2 * time.Second, DialogMax: 5 * time.Second,
		Redownloads: 1,
	}
}

// Tencent is the Tencent MyApp store.
func Tencent() Profile {
	return Profile{
		Package: "com.tencent.android.qqdownloader", Label: "Tencent MyApp",
		StoreHost: "android.myapp.com",
		Silent:    true, Storage: StorageSDCard,
		StagingDir: "/sdcard/tencent/tassistant/apk",
		HashCheck:  true, VerifyReads: 2, VerifyReadTime: 170 * time.Millisecond,
		GapMin: 20 * time.Millisecond, GapMax: 60 * time.Millisecond,
		Redownloads: 2,
	}
}

// HuaweiStore is the Huawei AppGallery.
func HuaweiStore() Profile {
	return Profile{
		Package: "com.huawei.appmarket", Label: "Huawei AppGallery",
		StoreHost: "appstore.huawei.com",
		Silent:    true, Storage: StorageSDCard,
		StagingDir: "/sdcard/HwMarket",
		HashCheck:  true, VerifyReads: 2, VerifyReadTime: 160 * time.Millisecond,
		GapMin: 20 * time.Millisecond, GapMax: 60 * time.Millisecond,
		Redownloads: 2,
		PushAuth:    ReceiverUnauthenticated,
	}
}

// SprintZone is Sprint's pre-installed pusher (statically analysed in the
// paper; the AIT shape mirrors DTIgnite's).
func SprintZone() Profile {
	p := DTIgnite()
	p.Package = "com.sprint.zone"
	p.Label = "Sprint Zone"
	p.StoreHost = "zone.sprint.com"
	p.StagingDir = "/sdcard/SprintZone"
	return p
}

// APKPure is the store Section II highlights: it became popular precisely
// by serving Google Play apps through the SD card so that storage-starved
// users can install them. Side-loaded by users, so installs go through the
// PIA consent dialog.
func APKPure() Profile {
	return Profile{
		Package: "com.apkpure.aegon", Label: "APKPure",
		StoreHost: "apkpure.com",
		Silent:    false, Storage: StorageSDCard,
		StagingDir: "/sdcard/APKPure",
		HashCheck:  true, VerifyReads: 2, VerifyReadTime: 150 * time.Millisecond,
		GapMin: 10 * time.Millisecond, GapMax: 40 * time.Millisecond,
		DialogMin: 2 * time.Second, DialogMax: 5 * time.Second,
		Redownloads: 1,
	}
}

// GalaxyApps is Samsung's own store: like Google Play, the manufacturer
// controls its devices' storage and stages internally.
func GalaxyApps() Profile {
	return Profile{
		Package: "com.sec.android.app.samsungapps", Label: "Galaxy Apps",
		StoreHost: "apps.samsung.com",
		Silent:    true, Storage: StorageInternal,
		StagingDir: "/data/data/com.sec.android.app.samsungapps/files",
		HashCheck:  true, VerifyReads: 1, VerifyReadTime: 110 * time.Millisecond,
		GapMin: 10 * time.Millisecond, GapMax: 30 * time.Millisecond,
		Redownloads: 2,
	}
}

// GooglePlay stages in internal storage (the secure pattern): APK staged
// under the store's private directory, made world-readable for the PMS.
func GooglePlay() Profile {
	return Profile{
		Package: "com.android.vending", Label: "Google Play",
		StoreHost: "play.google.com",
		Silent:    true, Storage: StorageInternal,
		StagingDir: "/data/data/com.android.vending/files",
		HashCheck:  true, VerifyReads: 1, VerifyReadTime: 100 * time.Millisecond,
		GapMin: 10 * time.Millisecond, GapMax: 30 * time.Millisecond,
		Redownloads: 2,
	}
}

// OrdinaryDeveloper is the self-updating ordinary app of Section II: stages
// on the SD card because internal staging failed with a read error, and
// performs no hash verification at all.
func OrdinaryDeveloper(pkg string) Profile {
	return Profile{
		Package: pkg, Label: pkg,
		StoreHost: "updates.example.com",
		Silent:    false, Storage: StorageSDCard,
		StagingDir: "/sdcard/Download",
		HashCheck:  false,
		GapMin:     5 * time.Millisecond, GapMax: 20 * time.Millisecond,
		DialogMin: 2 * time.Second, DialogMax: 5 * time.Second,
	}
}

// stores names every store profile the paper tested, in the order the
// sweep experiments run them. The names are the vocabulary of the CLIs'
// -store flags and the fleet API's "store" field.
var stores = []struct {
	name string
	mk   func() Profile
}{
	{"amazon", Amazon}, {"amazon-v2", AmazonV2}, {"xiaomi", Xiaomi},
	{"baidu", Baidu}, {"qihoo360", Qihoo360}, {"dtignite", DTIgnite},
	{"slideme", SlideMe}, {"tencent", Tencent}, {"huawei", HuaweiStore},
	{"sprintzone", SprintZone}, {"apkpure", APKPure},
	{"galaxy-apps", GalaxyApps}, {"googleplay", GooglePlay},
}

// AllStoreProfiles returns every store profile the paper tested, for the
// sweep experiments.
func AllStoreProfiles() []Profile {
	out := make([]Profile, len(stores))
	for i, s := range stores {
		out[i] = s.mk()
	}
	return out
}

// ByName returns the store profile with the given name (see StoreNames).
// Names match exactly.
func ByName(name string) (Profile, error) {
	for _, s := range stores {
		if s.name == name {
			return s.mk(), nil
		}
	}
	return Profile{}, fmt.Errorf("unknown store %q (want one of %v)", name, StoreNames())
}

// StoreNames lists the names ByName accepts, sorted.
func StoreNames() []string {
	out := make([]string, len(stores))
	for i, s := range stores {
		out[i] = s.name
	}
	slices.Sort(out)
	return out
}

// InternalStorageStores names the profiles that stage internally (the
// negative controls of the hijack studies).
func InternalStorageStores() map[string]bool {
	return map[string]bool{
		GooglePlay().Package: true,
		GalaxyApps().Package: true,
	}
}
