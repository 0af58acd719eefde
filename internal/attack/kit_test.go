package attack

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/ghost-installer/gia/internal/apk"
	"github.com/ghost-installer/gia/internal/installer"
	"github.com/ghost-installer/gia/internal/perm"
	"github.com/ghost-installer/gia/internal/sig"
)

func popularTarget(payload string) *apk.APK {
	return apk.Build(apk.Manifest{
		Package: "com.popular.app", VersionCode: 1, Label: "Popular App", Icon: "icon-popular",
		UsesPerms: []string{perm.Internet},
	}, map[string][]byte{"classes.dex": []byte(payload)}, sig.NewKey("popular-dev"))
}

// TestKitStagesItsPreparedReplacement pins the kit's offline repackage: on
// every device the kit is deployed to, NewTOCTOU handed the kit's target
// stages the kit's one replacement, whose bytes are exactly what
// apk.Repackage makes of the target.
func TestKitStagesItsPreparedReplacement(t *testing.T) {
	target := popularTarget("genuine")
	kit := NewKit("com.fun.game", target)
	cfg := ConfigForStore(installer.Amazon(), StrategyFileObserver)
	for seed := int64(1); seed <= 2; seed++ {
		mal, err := kit.Deploy(bootDev(t, seed))
		if err != nil {
			t.Fatal(err)
		}
		evil := NewTOCTOU(mal, cfg, target).EvilAPK()
		if evil != kit.evil {
			t.Errorf("device %d: NewTOCTOU repackaged the kit's own target afresh", seed)
		}
		want := apk.Repackage(target, defaultPayload, mal.Key, false).Encode()
		if !bytes.Equal(evil.Encode(), want) {
			t.Errorf("device %d: the kit's replacement differs from apk.Repackage's", seed)
		}
	}
}

// TestTOCTOUReplacesAnyOtherAPK hands NewTOCTOU an APK its malware's kit
// was not built for: the replacement must still carry that APK's manifest
// and other entries, the malware's certificate and the attacker's
// classes.dex.
func TestTOCTOUReplacesAnyOtherAPK(t *testing.T) {
	target := popularTarget("genuine")
	other := apk.Build(apk.Manifest{
		Package: "com.other.app", VersionCode: 3, Label: "Other", Icon: "icon-other",
	}, map[string][]byte{"classes.dex": []byte("other-code"), "res/raw/data": []byte("kept")}, sig.NewKey("other-dev"))
	kitMal, err := NewKit("com.fun.game", target).Deploy(bootDev(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	plainMal, err := DeployMalware(bootDev(t, 4), "com.fun.game")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ConfigForStore(installer.Amazon(), StrategyWaitAndSee)
	for _, c := range []struct {
		name string
		mal  *Malware
		orig *apk.APK
	}{
		{"kit, other apk", kitMal, other},
		{"target-less kit, target", plainMal, target},
		{"target-less kit, other apk", plainMal, other},
	} {
		evil := NewTOCTOU(c.mal, cfg, c.orig).EvilAPK()
		if !reflect.DeepEqual(evil.Manifest, c.orig.Manifest) {
			t.Errorf("%s: manifest %+v, want the original's", c.name, evil.Manifest)
		}
		if !evil.Cert().Equal(c.mal.Key.Certificate()) || evil.VerifySignature() != nil {
			t.Errorf("%s: replacement is not validly signed by the malware", c.name)
		}
		if got := string(evil.Files["classes.dex"]); got != "gia-payload" {
			t.Errorf("%s: classes.dex = %q, want the attacker's", c.name, got)
		}
		for name, data := range c.orig.Files {
			if name != "classes.dex" && !bytes.Equal(evil.Files[name], data) {
				t.Errorf("%s: entry %s not carried over", c.name, name)
			}
		}
	}
}
