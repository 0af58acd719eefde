package installer

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/ghost-installer/gia/internal/apk"
	"github.com/ghost-installer/gia/internal/market"
	"github.com/ghost-installer/gia/internal/obs"
	"github.com/ghost-installer/gia/internal/pm"
	"github.com/ghost-installer/gia/internal/sig"
	"github.com/ghost-installer/gia/internal/vfs"
)

// AIT step numbers (Figure 1).
const (
	StepInvocation = 1
	StepDownload   = 2
	StepTrigger    = 3
	StepInstall    = 4
)

// TraceStep is one entry of an AIT trace — the Figure 1 reproduction.
type TraceStep struct {
	Step   int
	Name   string
	At     time.Duration
	Detail string
}

func (s TraceStep) String() string {
	return fmt.Sprintf("[%8.3fms] step %d %-12s %s",
		float64(s.At)/float64(time.Millisecond), s.Step, s.Name, s.Detail)
}

// Result is the outcome of one App Installation Transaction.
type Result struct {
	Store     string
	Requested string
	Installed *pm.Package
	// Hijacked reports that the package installed at the end of the AIT
	// is not the content the store published.
	Hijacked bool
	Err      error
	Attempts int
	Trace    []TraceStep
}

// Succeeded reports whether some package was installed (hijacked or not).
func (r Result) Succeeded() bool { return r.Err == nil && r.Installed != nil }

// Clean reports a successful, unhijacked install.
func (r Result) Clean() bool { return r.Succeeded() && !r.Hijacked }

// Record writes the transaction's steps onto k as "ait" instants at their
// own timestamps, for merging into a device timeline after the run (see
// device.Device.Record and obs.Track.Sorted).
func (r Result) Record(k *obs.Track) {
	if k == nil {
		return
	}
	for _, s := range r.Trace {
		k.InstantAt(s.At, "ait", fmt.Sprintf("[%s] step %d %s: %s", r.Store, s.Step, s.Name, s.Detail))
	}
}

// ait tracks one in-flight transaction.
type ait struct {
	app     *App
	listing market.Listing
	result  Result
	done    func(Result)
	// recordedCert is the signer grabbed at download completion when the
	// profile uses signature verification (Section V-A).
	recordedCert sig.Certificate
}

func (t *ait) step(step int, name, detail string) {
	at := t.app.Dev.Sched.Now()
	t.result.Trace = append(t.result.Trace, TraceStep{
		Step: step, Name: name, At: at, Detail: detail,
	})
	t.app.met.track.InstantAt(at, name, detail)
}

func (t *ait) fail(err error) {
	t.result.Err = err
	t.done(t.result)
}

// RequestInstall runs the full AIT for target through this installer's
// profile. done fires (in virtual time) when the transaction reaches a
// terminal state. The caller drives the device scheduler.
func (a *App) RequestInstall(target string, done func(Result)) {
	t := &ait{
		app: a,
		// Presized trace: a clean AIT records ~8 steps, and growing the
		// slice from nil costs four allocations per transaction.
		result: Result{
			Store:     a.Prof.Package,
			Requested: target,
			Trace:     make([]TraceStep, 0, 12),
		},
		done: done,
	}
	if done == nil {
		t.done = func(Result) {}
	}
	a.met.aits.Add(1)
	if a.met.active() {
		start, inner := a.Dev.Sched.Now(), t.done
		t.done = func(r Result) {
			a.met.record(a, start, r)
			inner(r)
		}
	}
	t.step(StepInvocation, "invocation", "install request for "+target)
	listing, ok := a.Store.Lookup(target)
	if !ok {
		t.fail(fmt.Errorf("%s on %s: %w", target, a.Prof.StoreHost, ErrNotInCatalog))
		return
	}
	t.listing = listing
	t.attemptDownload()
}

func (t *ait) attemptDownload() {
	t.result.Attempts++
	t.step(StepDownload, "download", t.listing.URL)
	t.app.download(t.listing, func(path string, err error) {
		if err != nil {
			t.fail(err)
			return
		}
		t.step(StepDownload, "downloaded", path)
		// Section V-A fix: grab the signer certificate the moment the
		// download completes, before any attacker waiting for the
		// verification pass can strike.
		if t.app.Prof.UseSignatureVerification {
			data, err := t.app.Dev.FS.ReadFileShared(path, t.app.uid)
			if err != nil {
				t.fail(fmt.Errorf("installer: signature grab: %w", err))
				return
			}
			parsed, err := apk.Decode(data)
			if err != nil {
				t.fail(fmt.Errorf("installer: signature grab: %w", err))
				return
			}
			t.recordedCert = parsed.Cert()
			t.step(StepDownload, "signature-recorded", t.recordedCert.String())
		}
		// Suggestion 2: move the file out of shared storage before any
		// verification, closing the replacement window. When internal
		// space cannot hold the copy (low-end devices), fall back to
		// SD-card verification — the case the paper covers with the
		// FileObserver-based user-level defense.
		if t.app.Prof.SecureVerify && strings.HasPrefix(path, "/sdcard/") {
			secure, err := t.app.secureCopy(path)
			switch {
			case err == nil:
				t.step(StepDownload, "secure-copy", secure)
				path = secure
			case errors.Is(err, vfs.ErrNoSpace):
				t.step(StepDownload, "secure-copy-skipped", "insufficient internal space; verifying on shared storage")
			default:
				t.fail(err)
				return
			}
		}
		t.verify(path)
	})
}

// verify performs the profile's hash check: VerifyReads sequential reads of
// the staged file, each one an OPEN/ACCESS/CLOSE_NOWRITE sequence — the
// fingerprint the Section III-B attacker counts — with the digest compared
// after the last read.
func (t *ait) verify(path string) {
	if !t.app.Prof.HashCheck {
		t.step(StepTrigger, "verify", "no hash check (ordinary developer)")
		t.gapThenTrigger(path)
		return
	}
	reads := t.app.Prof.VerifyReads
	if reads < 1 {
		reads = 1
	}
	// One closure re-armed per read, not a fresh pair per read: the
	// verification loop runs for every AIT and its closures dominated the
	// installer's share of the arena-reuse allocation profile.
	k := 1
	var read func()
	read = func() {
		data, err := t.app.Dev.FS.ReadFileShared(path, t.app.uid)
		if err != nil {
			t.fail(fmt.Errorf("installer: verify read: %w", err))
			return
		}
		if k < reads {
			k++
			t.app.Dev.Sched.AfterFn(t.app.Prof.VerifyReadTime, read)
			return
		}
		// Staged bytes that are still the listing's own hosted buffer (a
		// download nothing else wrote to) match by identity; anything else,
		// a swap, an overwrite or a truncation, is hashed.
		if !t.listing.IsContent(data) && apk.ContentDigest(data) != t.listing.ContentHash {
			t.step(StepTrigger, "verify", "hash mismatch")
			t.retryOrFail(path)
			return
		}
		t.step(StepTrigger, "verify", "hash ok after "+strconv.Itoa(reads)+" reads")
		t.gapThenTrigger(path)
	}
	t.app.Dev.Sched.AfterFn(t.app.Prof.VerifyReadTime, read)
}

// retryOrFail implements the transparent re-download many stores perform
// when the staged file looks corrupted — which hands the attacker another
// attempt (Section III-B).
func (t *ait) retryOrFail(path string) {
	if t.result.Attempts > t.app.Prof.Redownloads {
		t.fail(fmt.Errorf("%s after %d attempts: %w", path, t.result.Attempts, ErrHashMismatch))
		return
	}
	_ = t.app.Dev.FS.Remove(path, t.app.uid)
	t.step(StepDownload, "redownload", "attempt "+strconv.Itoa(t.result.Attempts+1))
	t.attemptDownload()
}

// gapThenTrigger models the window between verification completion and the
// moment the PMS/PIA opens the file.
func (t *ait) gapThenTrigger(path string) {
	gap := t.app.Dev.Sched.Uniform(t.app.Prof.GapMin, t.app.Prof.GapMax)
	t.app.Dev.Sched.AfterFn(gap, func() { t.trigger(path) })
}

func (t *ait) trigger(path string) {
	if t.app.Prof.Silent {
		if t.app.Prof.UseSignatureVerification {
			t.step(StepTrigger, "trigger", "installPackageWithSignature")
			p, err := t.app.Dev.PMS.InstallPackageWithSignature(t.app.uid, path, t.recordedCert)
			if err != nil && errors.Is(err, pm.ErrSignatureVerify) {
				// The staged file changed hands since the download:
				// treat it like a corrupted download and retry.
				t.step(StepInstall, "install", "signature mismatch at install")
				t.retryOrFail(path)
				return
			}
			t.finishInstall(p, err)
			return
		}
		if t.app.Prof.UseManifestVerification {
			t.step(StepTrigger, "trigger", "installPackageWithVerification")
			p, err := t.app.Dev.PMS.InstallPackageWithVerification(t.app.uid, path, t.listing.ManifestHash)
			t.finishInstall(p, err)
			return
		}
		t.step(StepTrigger, "trigger", "installPackage")
		p, err := t.app.Dev.PMS.InstallPackage(t.app.uid, path)
		t.finishInstall(p, err)
		return
	}
	// PIA path: record manifest, show the consent dialog, then approve.
	t.step(StepTrigger, "trigger", "PackageInstallerActivity")
	sess, err := t.app.Dev.PIA.Begin(path)
	if err != nil {
		t.fail(fmt.Errorf("installer: pia begin: %w", err))
		return
	}
	dialog := t.app.Dev.Sched.Uniform(t.app.Prof.DialogMin, t.app.Prof.DialogMax)
	t.step(StepInstall, "consent", "dialog for "+sess.Prompt().Label)
	t.app.Dev.Sched.AfterFn(dialog, func() {
		p, err := sess.Approve()
		t.finishInstall(p, err)
	})
}

func (t *ait) finishInstall(p *pm.Package, err error) {
	if err != nil {
		t.fail(fmt.Errorf("installer: install: %w", err))
		return
	}
	t.result.Installed = p
	t.result.Hijacked = p.Image().EncodedDigest() != t.listing.ContentHash
	detail := "installed " + p.Name()
	if t.result.Hijacked {
		detail += " (HIJACKED: content differs from store listing)"
	}
	t.step(StepInstall, "installed", detail)
	t.done(t.result)
}
