package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func vetSource(t *testing.T, src string) []string {
	t.Helper()
	return vetNamed(t, "x.go", src)
}

// vetNamed runs every check over src saved as file name.
func vetNamed(t *testing.T, name, src string) []string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := vetFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

func wantFinding(t *testing.T, findings []string, substr string) {
	t.Helper()
	for _, f := range findings {
		if strings.Contains(f, substr) {
			return
		}
	}
	t.Errorf("no finding mentions %q in %v", substr, findings)
}

func TestVetFlagsTimeNow(t *testing.T) {
	findings := vetSource(t, `package p
import "time"
func f() time.Time { return time.Now() }
`)
	wantFinding(t, findings, "time.Now")
}

func TestVetFlagsGlobalRand(t *testing.T) {
	findings := vetSource(t, `package p
import "math/rand"
func f() int { return rand.Intn(10) }
`)
	wantFinding(t, findings, "rand.Intn")
}

func TestVetAllowsSeededRand(t *testing.T) {
	findings := vetSource(t, `package p
import "math/rand"
func f() int { return rand.New(rand.NewSource(7)).Intn(10) }
`)
	if len(findings) != 0 {
		t.Errorf("seeded generator flagged: %v", findings)
	}
}

func TestVetRespectsImportAliasAndShadowing(t *testing.T) {
	// Aliased import still caught; a local struct named time is not.
	findings := vetSource(t, `package p
import mrand "math/rand"
func f() int { return mrand.Intn(3) }
func g() int {
	rand := struct{ Intn func(int) int }{}
	_ = rand
	return 0
}
`)
	wantFinding(t, findings, "rand.Intn")
	if len(findings) != 1 {
		t.Errorf("want exactly the aliased finding, got %v", findings)
	}
}

func TestVetFlagsMapOrderedOutput(t *testing.T) {
	findings := vetSource(t, `package p
import "fmt"
func f() {
	m := map[string]int{"a": 1}
	for k := range m {
		fmt.Println(k)
	}
}
`)
	wantFinding(t, findings, "range over a map")
}

func TestVetAllowsSortedMapEmission(t *testing.T) {
	// The blessed pattern: collect keys, sort, emit — the map range only
	// appends, the printing loop ranges over a slice.
	findings := vetSource(t, `package p
import (
	"fmt"
	"sort"
)
func f(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Println(k, m[k])
	}
}
`)
	if len(findings) != 0 {
		t.Errorf("sorted emission flagged: %v", findings)
	}
}

// TestVetGuardedPackagesClean runs every check over every package under
// internal/ — the linter's actual job, pinned as a test so `go test ./...`
// fails the same way verify.sh's gate does.
func TestVetGuardedPackagesClean(t *testing.T) {
	root := filepath.Join("..", "..")
	dirs, err := defaultDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	checked := map[string]bool{}
	for _, dir := range dirs {
		files, err := goFiles(dir)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, path := range files {
			checked[filepath.Base(dir)] = true
			findings, err := vetFile(path)
			if err != nil {
				t.Errorf("%s: %v", path, err)
				continue
			}
			for _, f := range findings {
				t.Errorf("vet finding: %s", f)
			}
		}
	}
	// The packages a simulated device and the experiment engine run, the
	// corpus scanner, and the two that read the wall clock under a guard
	// (obs and serve).
	for _, pkg := range []string{"sim", "chaos", "experiment", "serve", "device", "fuse", "installer", "analysis", "obs"} {
		if !checked[pkg] {
			t.Errorf("internal/%s not checked — walked %d packages", pkg, len(dirs))
		}
	}
}

func TestVetWallclockGuardSuppressesTimeNow(t *testing.T) {
	findings := vetSource(t, `package p
import "time"
func f() int64 { return time.Now().UnixNano() //gia:wallclock — idle-reclaim bookkeeping
}
`)
	if len(findings) != 0 {
		t.Errorf("guarded time.Now flagged: %v", findings)
	}
}

func TestVetWallclockGuardIsLineScoped(t *testing.T) {
	// A guard on an adjacent line must not leak onto the call's line.
	findings := vetSource(t, `package p
import "time"
//gia:wallclock — wrong line
func f() time.Time { return time.Now() }
`)
	wantFinding(t, findings, "time.Now")
}

func TestVetWallclockGuardDoesNotCoverRand(t *testing.T) {
	findings := vetSource(t, `package p
import "math/rand"
func f() int { return rand.Intn(10) //gia:wallclock — not a clock
}
`)
	wantFinding(t, findings, "rand.Intn")
}

func TestVetFlagsGlobalMap(t *testing.T) {
	findings := vetSource(t, `package p
import "sync"
var plain map[string]int
var cache struct {
	sync.Mutex
	m map[string][]byte
}
var (
	grouped map[int]bool
	count   int
)
`)
	for _, name := range []string{"map plain", "map cache", "map grouped"} {
		wantFinding(t, findings, name)
	}
	if len(findings) != 3 {
		t.Errorf("want the three map globals flagged, got %v", findings)
	}
}

func TestVetGlobalGuardSuppressesGlobalMap(t *testing.T) {
	findings := vetSource(t, `package p
import "sync"
var cache struct { //gia:global — measured: the sweep costs +50% without it
	sync.Mutex
	m map[string][]byte
}
var plain map[string]int //gia:global — test fixture registry
`)
	if len(findings) != 0 {
		t.Errorf("guarded globals flagged: %v", findings)
	}
}

func TestVetGlobalGuardIsLineScoped(t *testing.T) {
	// The guard must sit on the name's line: above it, or on another
	// guard's marker, does not count.
	findings := vetSource(t, `package p
//gia:global — wrong line
var above map[string]int
var clock map[string]int //gia:wallclock — not a global guard
`)
	wantFinding(t, findings, "map above")
	wantFinding(t, findings, "map clock")
}

func TestVetAllowsLookupTablesAndLocals(t *testing.T) {
	// Initialized tables, struct globals without a map, map-typed
	// fields of named types and function-local maps are all out of scope.
	findings := vetSource(t, `package p
import "sync"
var weights = map[string]int{"a": 1}
var byKind map[int]string = map[int]string{1: "x"}
var once struct {
	sync.Once
	v []int
}
type registry struct{ m map[string]int }
func f() int {
	var local map[string]int
	return len(local)
}
`)
	if len(findings) != 0 {
		t.Errorf("out-of-scope declarations flagged: %v", findings)
	}
}

func TestVetFlagsAtomicMemo(t *testing.T) {
	findings := vetSource(t, `package p
import "sync/atomic"
type entry struct{ k []byte }
var last atomic.Pointer[entry]
var (
	cur   atomic.Value
	count atomic.Int64
)
`)
	wantFinding(t, findings, "atomic.Pointer last")
	wantFinding(t, findings, "atomic.Value cur")
	if len(findings) != 2 {
		t.Errorf("want the two atomic memos flagged, not the counter, got %v", findings)
	}
	// The import may be renamed; the rule follows it.
	findings = vetSource(t, `package p
import sa "sync/atomic"
var memo sa.Pointer[int]
`)
	wantFinding(t, findings, "atomic.Pointer memo")
}

func TestVetGlobalGuardSuppressesAtomicMemo(t *testing.T) {
	findings := vetSource(t, `package p
import "sync/atomic"
var last atomic.Pointer[int] //gia:global — measured: a miss rebuilds 300 us per schedule
var hooks atomic.Value //gia:global — process-wide telemetry switch
var above atomic.Value
`)
	wantFinding(t, findings, "atomic.Value above")
	if len(findings) != 1 {
		t.Errorf("guarded atomic memos flagged: %v", findings)
	}
}

func TestVetAtomicRuleNeedsSyncAtomic(t *testing.T) {
	// Another package's Pointer, or a struct holding one, is out of scope.
	findings := vetSource(t, `package p
import (
	"sync/atomic"
	"example.com/atomic2"
)
var other atomic2.Pointer[int]
var wrapped struct{ p atomic.Pointer[int] }
var initialized = new(atomic.Value)
`)
	if len(findings) != 0 {
		t.Errorf("out-of-scope declarations flagged: %v", findings)
	}
}

func TestVetGlobalRuleSkipsTestFiles(t *testing.T) {
	findings := vetNamed(t, "x_test.go", `package p
var fixtures map[string][]byte
`)
	if len(findings) != 0 {
		t.Errorf("test-file global flagged: %v", findings)
	}
}

// TestVetFlagsIdleWallclockGuard: a //gia:wallclock note must sit on a
// time.Now call. One on a line without it (the call was deleted, or the
// clock is shadowed) is reported; one on a call is not.
func TestVetFlagsIdleWallclockGuard(t *testing.T) {
	findings := vetSource(t, `package p
import "time"
func f() int64 { return 0 } //gia:wallclock — the call it excused is gone
func g(time struct{ Now func() int }) int { return time.Now() } //gia:wallclock — shadowed, not the clock
func h() time.Time { return time.Now() } //gia:wallclock — still reads the clock
`)
	if len(findings) != 2 {
		t.Fatalf("want the two idle notes flagged, got %v", findings)
	}
	for i, line := range []string{":3:", ":4:"} {
		if !strings.Contains(findings[i], line) || !strings.Contains(findings[i], "//gia:wallclock note guards nothing") {
			t.Errorf("finding %d = %q, want the idle note on line %s", i, findings[i], line)
		}
	}
}

// TestVetFlagsIdleGlobalGuard: a //gia:global note must sit on a global
// the globals check would flag. Notes on an initialized table, a plain
// counter and a test file's global are reported; the note on an
// uninitialized map is not.
func TestVetFlagsIdleGlobalGuard(t *testing.T) {
	findings := vetSource(t, `package p
import "sync/atomic"
var weights = map[string]int{"a": 1} //gia:global — a lookup table needs no note
var count atomic.Int64 //gia:global — a counter is not a memo
var cache map[string][]byte //gia:global — still a process-global map
`)
	if len(findings) != 2 {
		t.Fatalf("want the two idle notes flagged, got %v", findings)
	}
	for i, line := range []string{":3:", ":4:"} {
		if !strings.Contains(findings[i], line) || !strings.Contains(findings[i], "//gia:global note guards nothing") {
			t.Errorf("finding %d = %q, want the idle note on line %s", i, findings[i], line)
		}
	}
	findings = vetNamed(t, "x_test.go", `package p
var fixtures map[string][]byte //gia:global — test files are not checked for globals
`)
	wantFinding(t, findings, "//gia:global note guards nothing")
}
