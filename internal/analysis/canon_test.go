package analysis

import (
	"reflect"
	"strings"
	"testing"

	"github.com/ghost-installer/gia/internal/corpus"
)

func canonMeta(pkg string, storage corpus.StorageUse, links int) corpus.AppMeta {
	return corpus.AppMeta{
		Package: pkg, VersionCode: 1, Signer: "dev",
		HasInstallAPI: storage != corpus.StorageNone, Storage: storage, MarketLinks: links,
		UsesWriteExternal: storage == corpus.StorageSDCard,
	}
}

// TestCanonicalizeCollapsesTemplates: two template-identical apps that
// differ only in package name must canonicalize to the same bytes — the
// property the cache's hit rate rests on.
func TestCanonicalizeCollapsesTemplates(t *testing.T) {
	c := NewCanonicalizer(DefaultCanonMarkers())
	for _, file := range []string{"smali/Main.smali", "smali/Installer.smali", "smali/Redirects.smali"} {
		for _, storage := range []corpus.StorageUse{
			corpus.StorageSDCard, corpus.StorageInternalWorldReadable, corpus.StorageUnclear,
		} {
			a := corpus.BuildAPKFor(canonMeta("com.play.app00042", storage, 3))
			b := corpus.BuildAPKFor(canonMeta("com.vendor.other999", storage, 3))
			srcA, okA := a.Files[file]
			srcB, okB := b.Files[file]
			if !okA || !okB {
				continue
			}
			if string(srcA) == string(srcB) {
				continue // nothing to collapse
			}
			canonA, subsA, ok := c.Canonicalize(srcA)
			if !ok {
				t.Fatalf("%s storage=%v: canonicalization bailed for app A", file, storage)
			}
			gotA := string(canonA)
			ReleaseCanon(canonA)
			canonB, subsB, ok := c.Canonicalize(srcB)
			if !ok {
				t.Fatalf("%s storage=%v: canonicalization bailed for app B", file, storage)
			}
			gotB := string(canonB)
			ReleaseCanon(canonB)
			if gotA != gotB {
				t.Errorf("%s storage=%v: canonical forms differ:\nA: %q\nB: %q", file, storage, gotA, gotB)
			}
			if reflect.DeepEqual(subsA, subsB) {
				t.Errorf("%s: distinct apps produced identical subs %v", file, subsA)
			}
		}
	}
}

// TestCanonicalizeBailsOnMarkerShadowing: a package whose segments collide
// with rule markers or parser keywords must not be rewritten.
func TestCanonicalizeBailsOnMarkerShadowing(t *testing.T) {
	c := NewCanonicalizer(DefaultCanonMarkers())
	cases := []struct {
		name string
		src  string
	}{
		{"package segment shadows /sdcard content", "" +
			".class public La/sdcard/Main;\n" +
			".method public m()V\n" +
			"    const-string v0, \"/a/sdcard/x\"\n" +
			"    return-void\n" +
			".end method\n"},
		{"short name shadows an opcode", "" +
			".class public La/goto/Main;\n" +
			".method public m()V\n" +
			"    goto :end\n" +
			":end\n" +
			"    return-void\n" +
			".end method\n"},
		{"source already contains the placeholder mark", "" +
			".class public Lcom/x/app1/Main;\n" +
			".method public m()V\n" +
			"    const-string v0, \"GIA_P0\"\n" +
			"    return-void\n" +
			".end method\n"},
	}
	for _, tc := range cases {
		canon, subs, ok := c.Canonicalize([]byte(tc.src))
		if ok {
			t.Errorf("%s: expected bail, got subs=%v canon=%q", tc.name, subs, canon)
		}
		if string(canon) != tc.src {
			t.Errorf("%s: bailed canon must alias the source", tc.name)
		}
	}
}

// TestExpandInvertsCanonicalize: rewritten lines round-trip through Expand.
func TestExpandInvertsCanonicalize(t *testing.T) {
	c := NewCanonicalizer(DefaultCanonMarkers())
	src := corpus.BuildAPKFor(canonMeta("com.play.app00042", corpus.StorageSDCard, 0)).Files["smali/Installer.smali"]
	canon, subs, ok := c.Canonicalize(src)
	if !ok {
		t.Fatal("canonicalization bailed on the SD-card installer template")
	}
	roundTrip := Expand(string(canon), subs)
	ReleaseCanon(canon)
	if roundTrip != string(src) {
		t.Fatalf("Expand(Canonicalize(src)) != src:\ngot  %q\nwant %q", roundTrip, src)
	}
	if !strings.Contains(string(src), "/sdcard/app00042/") {
		t.Fatal("fixture lost the app-specific sdcard path; the test is vacuous")
	}
}

// TestCachedEngineMatchesUncachedScanAPK compares full per-APK reports of
// a cached engine against an uncached one, including repeated scans that
// exercise the hit path.
func TestCachedEngineMatchesUncachedScanAPK(t *testing.T) {
	cached := NewEngineWithOptions(EngineOptions{CacheCapacity: 256})
	plain := NewEngine()
	apps := []corpus.AppMeta{
		canonMeta("com.play.app00001", corpus.StorageSDCard, 2),
		canonMeta("com.play.app00002", corpus.StorageSDCard, 2), // template twin
		canonMeta("com.vendor.sys0001", corpus.StorageInternalWorldReadable, 0),
		canonMeta("com.store.app000003", corpus.StorageUnclear, 5),
		canonMeta("com.none.app4", corpus.StorageNone, 1),
	}
	for round := 0; round < 2; round++ {
		for _, app := range apps {
			a := corpus.BuildAPKFor(app)
			got := cached.ScanAPK(a)
			want := plain.ScanAPK(a)
			got.CacheMisses = 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d %s: cached report diverges:\ncached   %+v\nuncached %+v",
					round, app.Package, got, want)
			}
		}
	}
	st, ok := cached.CacheStats()
	if !ok {
		t.Fatal("CacheStats reported no cache on a cached engine")
	}
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("cache never exercised: %+v", st)
	}
	if _, ok := plain.CacheStats(); ok {
		t.Fatal("uncached engine claims a cache")
	}
}

// TestCacheErrorFallback: malformed sources must error identically through
// the cache, and errors must not be cached.
func TestCacheErrorFallback(t *testing.T) {
	cached := NewEngineWithOptions(EngineOptions{CacheCapacity: 16})
	plain := NewEngine()
	bad := ".class public Lcom/x/app9/Main;\n.method public m()V\n    goto :nowhere\n.end method\n"
	for i := 0; i < 2; i++ {
		_, gotStats, gotErr := cached.AnalyzeSource("bad.smali", bad)
		_, wantStats, wantErr := plain.AnalyzeSource("bad.smali", bad)
		if gotErr == nil || wantErr == nil || gotStats != wantStats {
			t.Fatalf("iter %d: cached (%v, %v) vs uncached (%v, %v)", i, gotStats, gotErr, wantStats, wantErr)
		}
	}
	if st, _ := cached.CacheStats(); st.Entries != 0 {
		t.Fatalf("failed analysis was cached: %+v", st)
	}
}

// FuzzCanonicalKey is the cache's soundness oracle: whenever the
// canonicalizer claims a rewrite applies, analyzing the canonical source
// and rehydrating must equal analyzing the original directly. A failure
// here means two sources with different rule outcomes could share a cache
// key.
func FuzzCanonicalKey(f *testing.F) {
	for _, storage := range []corpus.StorageUse{
		corpus.StorageNone, corpus.StorageSDCard,
		corpus.StorageInternalWorldReadable, corpus.StorageUnclear,
	} {
		a := corpus.BuildAPKFor(canonMeta("com.play.app00042", storage, 4))
		for _, src := range a.Files {
			f.Add(string(src))
		}
	}
	f.Add(".class public La/sdcard/Main;\n.method public m()V\n    const-string v0, \"/a/sdcard/x\"\n    return-void\n.end method\n")
	f.Add(".class public Lcom/a/v2/Main;\n.method public m()V\n    const/4 v2, 0x1\n    invoke-virtual {v2}, Lx;->openFileOutput(I)V\n    return-void\n.end method\n")
	f.Add(".class public Lcom/a/method/Main;\n.method public m()V\n    return-void\n.end method\n")
	f.Add(".class public Lcom/x/app1/Main;\n# GIA_P0 in a comment\n.method public m()V\n    return-void\n.end method\n")

	canonicalizer := NewCanonicalizer(DefaultCanonMarkers())
	eng := NewEngine()
	f.Fuzz(func(t *testing.T, src string) {
		canon, subs, ok := canonicalizer.Canonicalize([]byte(src))
		if !ok {
			return // raw-keyed: trivially sound
		}
		canonCopy := string(canon)
		ReleaseCanon(canon)

		cFindings, cStats, cErr := eng.AnalyzeSource("f.smali", canonCopy)
		if cErr != nil {
			return // the engine falls back to direct analysis on this path
		}
		dFindings, dStats, dErr := eng.AnalyzeSource("f.smali", src)
		if dErr != nil {
			t.Fatalf("canonical form parses but original errors: %v\nsrc: %q\ncanon: %q", dErr, src, canonCopy)
		}
		if cStats != dStats {
			t.Fatalf("stats diverge: canonical %+v, direct %+v\nsrc: %q", cStats, dStats, src)
		}
		rehydrated := rehydrate(cachedSource{findings: cFindings, stats: cStats}, subs, "f.smali")
		if len(rehydrated) == 0 && len(dFindings) == 0 {
			return
		}
		if !reflect.DeepEqual(rehydrated, dFindings) {
			t.Fatalf("findings diverge after rehydration:\ncached %+v\ndirect %+v\nsrc: %q\ncanon: %q",
				rehydrated, dFindings, src, canonCopy)
		}
	})
}
