package apk

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"github.com/ghost-installer/gia/internal/sig"
)

func sampleManifest() Manifest {
	return Manifest{
		Package:     "com.bank.app",
		VersionCode: 7,
		Label:       "Bank",
		Icon:        "icon-bank",
		UsesPerms:   []string{"android.permission.INTERNET"},
		DefinesPerms: []PermissionDef{
			{Name: "com.bank.app.permission.API", ProtectionLevel: "signature"},
		},
		Components: []Component{
			{Type: ComponentActivity, Name: "com.bank.app.Main", Exported: true},
			{Type: ComponentReceiver, Name: "com.bank.app.Push", Exported: true, GuardedBy: "com.bank.app.permission.API"},
		},
	}
}

func TestBuildEncodeDecodeRoundTrip(t *testing.T) {
	key := sig.NewKey("bank-dev")
	a := Build(sampleManifest(), map[string][]byte{"classes.dex": []byte("code")}, key)
	a.Padding = 128

	data := a.Encode()
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Manifest.Package != "com.bank.app" || got.Manifest.VersionCode != 7 {
		t.Errorf("manifest = %+v", got.Manifest)
	}
	if string(got.Files["classes.dex"]) != "code" {
		t.Errorf("files = %v", got.Files)
	}
	if got.Padding != 128 {
		t.Errorf("padding = %d", got.Padding)
	}
	if err := got.VerifySignature(); err != nil {
		t.Errorf("decoded signature invalid: %v", err)
	}
	if !got.Cert().Equal(key.Certificate()) {
		t.Error("certificate changed in round trip")
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	key := sig.NewKey("dev")
	data := Build(sampleManifest(), nil, key).Encode()

	for _, cut := range []int{1, eocdSize - 1, eocdSize, len(data) / 2} {
		if _, err := Decode(data[:len(data)-cut]); !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
			t.Errorf("cut %d bytes: err = %v, want truncated/corrupt", cut, err)
		}
	}
	if _, err := Decode(nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("Decode(nil) = %v", err)
	}
}

func TestDecodeRejectsTamperedContent(t *testing.T) {
	key := sig.NewKey("dev")
	data := Build(sampleManifest(), map[string][]byte{"f": []byte("x")}, key).Encode()
	data[10] ^= 0xFF
	if _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
		t.Errorf("tampered decode = %v, want ErrCorrupt", err)
	}
}

func TestHasEOCDOnlyAtCompleteTail(t *testing.T) {
	key := sig.NewKey("dev")
	data := Build(sampleManifest(), nil, key).Encode()
	if !HasEOCD(data) {
		t.Error("complete archive lacks EOCD")
	}
	if HasEOCD(data[:len(data)-1]) {
		t.Error("truncated archive reports EOCD")
	}
	if HasEOCD(data[:len(data)/2]) {
		t.Error("half archive reports EOCD")
	}
	if HasEOCD(nil) {
		t.Error("empty data reports EOCD")
	}
}

func TestVerifySignatureDetectsTampering(t *testing.T) {
	key := sig.NewKey("dev")
	a := Build(sampleManifest(), map[string][]byte{"f": []byte("x")}, key)
	if err := a.VerifySignature(); err != nil {
		t.Fatal(err)
	}
	a.Files["f"] = []byte("evil")
	if err := a.VerifySignature(); !errors.Is(err, ErrBadSignature) {
		t.Errorf("tampered files verify = %v, want ErrBadSignature", err)
	}
	var unsigned APK
	unsigned.Manifest = sampleManifest()
	if err := unsigned.VerifySignature(); !errors.Is(err, ErrNotSigned) {
		t.Errorf("unsigned verify = %v, want ErrNotSigned", err)
	}
}

func TestRepackageKeepsManifestChangesSigner(t *testing.T) {
	dev := sig.NewKey("bank-dev")
	attacker := sig.NewKey("attacker")
	orig := Build(sampleManifest(), map[string][]byte{"classes.dex": []byte("legit")}, dev)

	evil := Repackage(orig, map[string][]byte{"classes.dex": []byte("malware")}, attacker, false)

	if evil.Manifest.Digest() != orig.Manifest.Digest() {
		t.Error("repackaging changed the manifest digest — PIA verification would catch it")
	}
	if evil.Cert().Equal(orig.Cert()) {
		t.Error("repackaged APK kept the original certificate")
	}
	if err := evil.VerifySignature(); err != nil {
		t.Errorf("repackaged APK signature invalid: %v", err)
	}
	if string(evil.Files["classes.dex"]) != "malware" {
		t.Errorf("payload = %q", evil.Files["classes.dex"])
	}
	// The content digest differs, which is what hash re-verification
	// right before install (Suggestion 2) would detect.
	if ContentDigest(evil.Encode()) == ContentDigest(orig.Encode()) {
		t.Error("repackaged content digest unchanged")
	}
}

// TestRepackageBytesPinned pins Repackage's encoding, which must not
// change when it stops copying the entries the attacker replaces, and
// checks that the repackage shares no buffer with either input.
func TestRepackageBytesPinned(t *testing.T) {
	dev := sig.NewKey("bank-dev")
	orig := WithDRM(Build(sampleManifest(), map[string][]byte{
		"classes.dex":  bytes.Repeat([]byte("legit"), 40<<10),
		"res/raw/data": []byte("kept"),
	}, dev), dev)
	orig.Padding = 300
	attacker := sig.NewKey("attacker")
	want := map[bool]string{
		false: "29322ab7049cc6bfbe431eca6757f5abebc5a6df96c5c5bad1484162b90e50a4",
		true:  "79ac9a2815d8faa20940305cabb51029a6e83a9295f4fcb414815baf075f306e",
	}
	for _, strip := range []bool{false, true} {
		files := map[string][]byte{"classes.dex": []byte("malware"), "lib/x.so": []byte("so")}
		evil := Repackage(orig, files, attacker, strip)
		if got := ContentDigest(evil.Encode()).Hex(); got != want[strip] {
			t.Errorf("strip=%v: encoding digest %s, want %s", strip, got, want[strip])
		}
		files["classes.dex"][0] = 'X'
		orig.Files["res/raw/data"][0] = 'X'
		if string(evil.Files["classes.dex"]) != "malware" || string(evil.Files["res/raw/data"]) != "kept" {
			t.Errorf("strip=%v: the repackage aliases an input's bytes", strip)
		}
		orig.Files["res/raw/data"][0] = 'k'
	}
}

func TestDRMSelfCheck(t *testing.T) {
	dev := sig.NewKey("amazon")
	attacker := sig.NewKey("attacker")
	orig := WithDRM(Build(sampleManifest(), map[string][]byte{"classes.dex": []byte("x")}, dev), dev)

	if !orig.DRMSelfCheck() {
		t.Error("genuine app failed its own DRM self-check")
	}

	// Repackaging while keeping DRM: the self-check fails (wrong signer).
	kept := Repackage(orig, map[string][]byte{"classes.dex": []byte("evil")}, attacker, false)
	if kept.DRMSelfCheck() {
		t.Error("repackaged app with retained DRM passed the self-check")
	}

	// Repackaging and stripping DRM (the paper's attack): check passes
	// trivially because the self-check code is gone.
	stripped := Repackage(orig, map[string][]byte{"classes.dex": []byte("evil")}, attacker, true)
	if !stripped.DRMSelfCheck() {
		t.Error("DRM-stripped repackage failed the (absent) self-check")
	}
	if _, ok := stripped.Files[DRMEntryName]; ok {
		t.Error("DRM entry survived stripping")
	}
}

func TestManifestQueries(t *testing.T) {
	m := sampleManifest()
	if !m.Uses("android.permission.INTERNET") {
		t.Error("Uses missed a declared permission")
	}
	if m.Uses("android.permission.CAMERA") {
		t.Error("Uses reported an undeclared permission")
	}
	if def, ok := m.Defines("com.bank.app.permission.API"); !ok || def.ProtectionLevel != "signature" {
		t.Errorf("Defines = %+v, %v", def, ok)
	}
	if _, ok := m.Defines("nope"); ok {
		t.Error("Defines reported an undeclared permission")
	}
	if c, ok := m.Component("com.bank.app.Push"); !ok || c.Type != ComponentReceiver {
		t.Errorf("Component = %+v, %v", c, ok)
	}
	if _, ok := m.Component("nope"); ok {
		t.Error("Component reported an undeclared component")
	}
}

func TestPaddingGrowsEncodedSize(t *testing.T) {
	key := sig.NewKey("dev")
	small := Build(sampleManifest(), nil, key)
	big := Build(sampleManifest(), nil, key)
	big.Padding = 4096
	// The padding field itself adds a few JSON bytes, so the growth is at
	// least the padding amount.
	if big.Size() < small.Size()+4096 {
		t.Errorf("sizes: big %d, small %d", big.Size(), small.Size())
	}
	decoded, err := Decode(big.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if err := decoded.VerifySignature(); err != nil {
		t.Errorf("padded APK signature: %v", err)
	}
}

// Property: encode/decode round-trips arbitrary file contents and the
// signature still verifies.
func TestPropertyEncodeDecodeRoundTrip(t *testing.T) {
	key := sig.NewKey("dev")
	f := func(name string, content []byte, version uint8) bool {
		if name == "" {
			name = "f"
		}
		m := Manifest{Package: "com.p", VersionCode: int(version), Label: "P"}
		a := Build(m, map[string][]byte{name: content}, key)
		got, err := Decode(a.Encode())
		if err != nil {
			return false
		}
		if string(got.Files[name]) != string(content) {
			return false
		}
		return got.VerifySignature() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Decode and HasEOCD never panic and Decode never succeeds on
// arbitrary garbage (robustness of the parser the PMS and DAPP rely on).
func TestPropertyDecodeRobustOnGarbage(t *testing.T) {
	f := func(data []byte) bool {
		_ = HasEOCD(data)
		a, err := Decode(data)
		// Arbitrary bytes must not produce a *validly signed* APK.
		if err == nil && a.VerifySignature() == nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: flipping any single byte of a valid archive either fails
// decoding or fails signature verification — never both succeed.
func TestPropertySingleByteFlipDetected(t *testing.T) {
	key := sig.NewKey("dev")
	orig := Build(sampleManifest(), map[string][]byte{"f": []byte("payload")}, key).Encode()
	f := func(pos uint16, delta uint8) bool {
		if delta == 0 {
			return true
		}
		data := append([]byte(nil), orig...)
		data[int(pos)%len(data)] ^= delta
		a, err := Decode(data)
		if err != nil {
			return true
		}
		return a.VerifySignature() != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: every strict prefix of an encoded APK lacks a valid EOCD.
func TestPropertyPrefixNeverHasEOCD(t *testing.T) {
	key := sig.NewKey("dev")
	data := Build(sampleManifest(), map[string][]byte{"f": []byte("payload")}, key).Encode()
	f := func(cut uint16) bool {
		n := int(cut)%len(data) + 1 // 1..len
		return !HasEOCD(data[:len(data)-n])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
