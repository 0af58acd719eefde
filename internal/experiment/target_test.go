package experiment

import (
	"bytes"
	"sync"
	"testing"

	"github.com/ghost-installer/gia/internal/apk"
	"github.com/ghost-installer/gia/internal/arena"
	"github.com/ghost-installer/gia/internal/attack"
	"github.com/ghost-installer/gia/internal/installer"
)

// TestTargetMemo pins NewScenarioPayloadOn's one-entry payload memo: the
// same buffer reuses its target without allocating, equal bytes in a
// fresh buffer reuse it too, different bytes build a target of their own
// that the store serves, and the built-in payload is always the default
// target whatever the entry holds.
func TestTargetMemo(t *testing.T) {
	a := bytes.Repeat([]byte{0x11}, 100<<10)
	first := targetFor(a)
	if again := targetFor(a); again != first {
		t.Fatal("the same buffer twice built a second target")
	}
	if !raceEnabled {
		if n := testing.AllocsPerRun(100, func() { targetFor(a) }); n != 0 {
			t.Errorf("a memo hit on the same buffer allocates %.0f objects, want 0", n)
		}
	}
	if eq := targetFor(append([]byte(nil), a...)); eq != first {
		t.Error("a fresh buffer with equal bytes built a second target")
	}

	b := bytes.Repeat([]byte{0x22}, 100<<10)
	s, err := NewScenarioPayload(installer.Amazon(), 3, b)
	if err != nil {
		t.Fatal(err)
	}
	second := s.Target
	if second == first {
		t.Fatal("different bytes reused the previous target")
	}
	if !bytes.Equal(second.Files["classes.dex"], b) {
		t.Error("the new target's classes.dex differs from its payload")
	}
	listing, ok := s.Store.Store.Lookup(TargetPackage)
	if !ok {
		t.Fatal("target listing missing")
	}
	served, err := s.Dev.Market.Fetch(listing.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(second.Encode(), served) {
		t.Error("the new target's encoding differs from the bytes the store serves")
	}

	if got := targetFor([]byte("genuine")); got != defaultTarget() {
		t.Error("the built-in payload did not resolve to the default target")
	}
	if got := targetFor(b); got != second {
		t.Error("resolving the built-in payload displaced the memo entry")
	}
}

// TestFixtureMemo pins the fixture entry that sits beside targetFor's:
// every schedule of an orders exploration (one profile, one payload
// buffer) deploys one fixture, so does every daemon create of the
// built-in payload from a fresh buffer and every HijackRunFunc made for
// one profile, and switching between them rebuilds the fixture but never
// the large payload's target.
func TestFixtureMemo(t *testing.T) {
	amazon := installer.Amazon()
	big := bytes.Repeat([]byte{0x44}, 100<<10)
	first := fixtureFor(amazon, targetFor(big))
	if again := fixtureFor(amazon, targetFor(big)); again != first {
		t.Fatal("the same profile and buffer built a second fixture")
	}
	if !raceEnabled {
		if n := testing.AllocsPerRun(100, func() { fixtureFor(amazon, targetFor(big)) }); n != 0 {
			t.Errorf("a fixture memo hit allocates %.0f objects, want 0", n)
		}
	}

	// Two scenarios built like two schedules share the kit's prepared
	// replacement rather than repackaging the target each.
	a := arena.New(ScenarioDeviceProfile(0))
	cfg := attack.ConfigForStore(amazon, attack.StrategyWaitAndSee)
	var evil []*apk.APK
	for seed := int64(1); seed <= 2; seed++ {
		dev, err := a.Acquire(seed)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewScenarioPayloadOn(dev, amazon, big)
		if err != nil {
			t.Fatal(err)
		}
		evil = append(evil, attack.NewTOCTOU(s.Mal, cfg, s.Target).EvilAPK())
		a.Release(dev)
	}
	if evil[0] != evil[1] {
		t.Error("two schedules of one profile and payload repackaged the target twice")
	}

	builtIn := fixtureFor(amazon, targetFor([]byte("genuine")))
	if builtIn.target != defaultTarget() {
		t.Error("the built-in payload's fixture does not publish the default target")
	}
	if again := fixtureFor(amazon, targetFor([]byte("genuine"))); again != builtIn {
		t.Error("a fresh buffer of the built-in payload built a second fixture")
	}
	if back := fixtureFor(amazon, targetFor(big)); back.target != first.target {
		t.Error("resolving the built-in payload made the large payload rebuild its target")
	}
	if dti := fixtureFor(installer.DTIgnite(), first.target); dti.prof != installer.DTIgnite() || dti.target != first.target {
		t.Error("another profile reused the Amazon fixture")
	}

	// A RunFunc made per request, as gia-serve's replay makes one, takes
	// the memo's fixture instead of building its own.
	HijackRunFunc(amazon, attack.StrategyFileObserver)
	fx := lastFixture.Load()
	HijackRunFunc(amazon, attack.StrategyWaitAndSee)
	if fx.target != defaultTarget() || fx.prof != amazon || lastFixture.Load() != fx {
		t.Error("HijackRunFunc built its own fixture instead of resolving the memo's")
	}
}

// TestTargetMemoConcurrent builds scenarios from many goroutines at once,
// alternating two store profiles and three payloads, each payload by its
// own buffer and by fresh copies. Every scenario's parts must belong
// together: the store its profile's, the target built from its own
// payload, and the replacement the one its kit prepared for that target,
// signed by its malware. The race detector must stay quiet.
func TestTargetMemoConcurrent(t *testing.T) {
	profiles := []installer.Profile{installer.Amazon(), installer.DTIgnite()}
	payloads := [][]byte{
		bytes.Repeat([]byte{0x31}, 70<<10),
		bytes.Repeat([]byte{0x32}, 70<<10),
		[]byte("genuine"),
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			a := arena.New(ScenarioDeviceProfile(0))
			for i := 0; i < 20; i++ {
				prof := profiles[(g+i)%len(profiles)]
				p := payloads[(g+i)%len(payloads)]
				if i/2%2 == 1 {
					p = append([]byte(nil), p...)
				}
				if msg := checkScenario(a, int64(i), prof, p); msg != "" {
					errs <- msg
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// checkScenario builds one scenario of prof and payload on an arena device
// and reports the first part that does not belong with the others.
func checkScenario(a *arena.Arena, seed int64, prof installer.Profile, payload []byte) string {
	dev, err := a.Acquire(seed)
	if err != nil {
		return err.Error()
	}
	defer a.Release(dev)
	s, err := NewScenarioPayloadOn(dev, prof, payload)
	if err != nil {
		return err.Error()
	}
	cfg := attack.ConfigForStore(prof, attack.StrategyFileObserver)
	evil := attack.NewTOCTOU(s.Mal, cfg, s.Target).EvilAPK()
	switch {
	case s.Store.Pkg.Name() != prof.Package:
		return "a scenario deployed " + s.Store.Pkg.Name() + " for " + prof.Package
	case !bytes.Equal(s.Target.Files["classes.dex"], payload):
		return "a target's classes.dex differs from the payload it was resolved for"
	case evil != attack.NewTOCTOU(s.Mal, cfg, s.Target).EvilAPK():
		return "a scenario's kit was prepared for another target"
	case !evil.Cert().Equal(s.Mal.Key.Certificate()) || evil.Manifest.Package != s.Target.Manifest.Package:
		return "a replacement is not its malware's repackage of its target"
	}
	return ""
}
