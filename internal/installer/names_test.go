package installer

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestStoreNamesCoverAllProfiles: StoreNames is sorted, every name
// resolves through ByName, and the names cover every store profile of
// AllStoreProfiles exactly once.
func TestStoreNamesCoverAllProfiles(t *testing.T) {
	names := StoreNames()
	all := AllStoreProfiles()
	if len(names) != 13 || len(all) != 13 {
		t.Fatalf("StoreNames() = %d entries, AllStoreProfiles() = %d, want 13 (every paper store profile): %v",
			len(names), len(all), names)
	}
	if !slices.IsSorted(names) {
		t.Errorf("StoreNames() not sorted: %v", names)
	}
	named := make([]int, len(all))
	for _, name := range names {
		prof, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		for i := range all {
			if reflect.DeepEqual(prof, all[i]) {
				named[i]++
			}
		}
	}
	for i, n := range named {
		if n != 1 {
			t.Errorf("profile %d (%s) has %d names, want 1", i, all[i].Label, n)
		}
	}
	if _, err := ByName("Amazon"); err == nil {
		t.Error("ByName accepted a case-folded name")
	}
}

func ExampleStoreNames() {
	fmt.Println(strings.Join(StoreNames()[:3], ","))
	// Output: amazon,amazon-v2,apkpure
}
