package installer

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/ghost-installer/gia/internal/apk"
	"github.com/ghost-installer/gia/internal/device"
	"github.com/ghost-installer/gia/internal/fault"
	"github.com/ghost-installer/gia/internal/fileobserver"
	"github.com/ghost-installer/gia/internal/perm"
	"github.com/ghost-installer/gia/internal/sig"
	"github.com/ghost-installer/gia/internal/vfs"
)

// deployMultiChunk deploys prof with a target whose 300 KiB payload takes
// five transfer chunks, so the staged file is built up chunk by chunk from
// the hosted buffer.
func deployMultiChunk(t *testing.T, d *device.Device, prof Profile) *App {
	t.Helper()
	app, err := Deploy(d, prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	app.Store.Publish(apk.Build(apk.Manifest{Package: "com.example.app", VersionCode: 1, Label: "Target"},
		map[string][]byte{"classes.dex": bytes.Repeat([]byte("g"), 300<<10)}, sig.NewKey("example-dev")))
	return app
}

// hashMismatches counts the transaction's failed hash comparisons.
func hashMismatches(res Result) int {
	n := 0
	for _, s := range res.Trace {
		if s.Name == "verify" && s.Detail == "hash mismatch" {
			n++
		}
	}
	return n
}

// wantHashFailure requires that every attempt reached the hash comparison
// and failed it, and that the store gave up after its re-downloads.
func wantHashFailure(t *testing.T, res Result, prof Profile) {
	t.Helper()
	attempts := prof.Redownloads + 1
	if !errors.Is(res.Err, ErrHashMismatch) || res.Installed != nil {
		t.Fatalf("result err %v, installed %v; want a hash-mismatch failure", res.Err, res.Installed)
	}
	if res.Attempts != attempts || hashMismatches(res) != attempts {
		t.Fatalf("attempts %d with %d hash mismatches, want %d of each", res.Attempts, hashMismatches(res), attempts)
	}
}

// The staged file of a clean multi-chunk download is the hosted buffer
// itself, which verify accepts by identity; both download paths still
// install cleanly on the first attempt.
func TestMultiChunkDownloadInstallsClean(t *testing.T) {
	for _, prof := range []Profile{Amazon(), DTIgnite()} {
		t.Run(prof.Package, func(t *testing.T) {
			d := bootDev(t)
			app := deployMultiChunk(t, d, prof)
			res := runAIT(t, d, app, "com.example.app")
			if !res.Clean() || res.Attempts != 1 {
				t.Fatalf("err %v, hijacked %v, attempts %d; want a clean first-attempt install", res.Err, res.Hijacked, res.Attempts)
			}
		})
	}
}

// A 1-byte in-place overwrite after each download's first chunk leaves a
// file that is no longer the hosted buffer: verify must hash it and fail,
// on every attempt.
func TestMidDownloadOverwriteIsHashed(t *testing.T) {
	d := bootDev(t)
	prof := Amazon()
	app := deployMultiChunk(t, d, prof)
	evil, err := d.InstallSystemApp(apk.Build(apk.Manifest{
		Package: "com.clumsy", VersionCode: 1, Label: "Clumsy",
		UsesPerms: []string{perm.WriteExternalStorage},
	}, nil, sig.NewKey("clumsy")))
	if err != nil {
		t.Fatal(err)
	}
	overwrites := 0
	obs := fileobserver.New(d.FS, prof.StagingDir, fileobserver.Modify, func(ev fileobserver.Event) {
		info, err := d.FS.Stat(ev.Path)
		if ev.Actor != app.UID() || err != nil || info.Size != selfChunkSize {
			return
		}
		h, err := d.FS.Open(ev.Path, evil.UID, vfs.FlagWrite, vfs.ModeShared)
		if err != nil {
			t.Errorf("open for overwrite: %v", err)
			return
		}
		if _, err := h.Write([]byte("!")); err != nil {
			t.Errorf("overwrite: %v", err)
		}
		_ = h.Close()
		overwrites++
	})
	if err := obs.StartWatching(); err != nil {
		t.Fatal(err)
	}
	defer obs.StopWatching()

	res := runAIT(t, d, app, "com.example.app")
	wantHashFailure(t, res, prof)
	if overwrites != res.Attempts {
		t.Fatalf("%d overwrites for %d attempts", overwrites, res.Attempts)
	}
}

// truncateEveryDownload ends every multi-chunk DM transfer after its
// first chunk: the DM probes the chunk site once per chunk, so each
// transfer's second probe truncates it.
type truncateEveryDownload struct{ probes int }

func (f *truncateEveryDownload) Probe(site fault.Site, _ string, _ time.Duration) fault.Action {
	if site != fault.SiteDMChunk {
		return fault.None
	}
	f.probes++
	if f.probes == 2 {
		f.probes = 0
		return fault.Action{Kind: fault.KindTruncate}
	}
	return fault.None
}

// A download the fault plan truncates is reported successful, and its
// staged file is a prefix of the hosted buffer: verify must hash it and
// fail, on every attempt.
func TestTruncatedDownloadIsHashed(t *testing.T) {
	d := bootDev(t)
	prof := DTIgnite()
	app := deployMultiChunk(t, d, prof)
	d.DM.SetFaultInjector(&truncateEveryDownload{})
	res := runAIT(t, d, app, "com.example.app")
	wantHashFailure(t, res, prof)
}
