package experiment

import (
	"bytes"
	"sync"
	"testing"

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

// TestTargetMemoConcurrent resolves three payloads from many goroutines at
// once, each by its own buffer and by fresh copies: every call must get a
// target built from its own bytes, and the race detector must stay quiet.
func TestTargetMemoConcurrent(t *testing.T) {
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
			for i := 0; i < 20; i++ {
				p := payloads[(g+i)%len(payloads)]
				if i%2 == 1 {
					p = append([]byte(nil), p...)
				}
				if got := targetFor(p); !bytes.Equal(got.Files["classes.dex"], p) {
					errs <- "a target's classes.dex differs from the payload it was resolved for"
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
