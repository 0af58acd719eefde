package experiment

import (
	"fmt"
	"sort"

	"github.com/ghost-installer/gia/internal/attack"
	"github.com/ghost-installer/gia/internal/installer"
	"github.com/ghost-installer/gia/internal/par"
)

// FleetOutcome aggregates hijack results over many simulated devices of
// one store profile.
type FleetOutcome struct {
	Store    string
	Devices  int
	Hijacked int
}

// Rate is the per-store hijack rate.
func (o FleetOutcome) Rate() float64 {
	if o.Devices == 0 {
		return 0
	}
	return float64(o.Hijacked) / float64(o.Devices)
}

// FleetStudy scales the attack across a fleet of devices — the paper's
// "hundreds of millions of users" claim in miniature. Each device gets a
// collision-free derived seed (timing jitter, random names, different
// gaps); the attack must not depend on any particular draw. Devices own
// private simulators, so the study fans out on a worker pool of the given
// size (<= 0 selects NumCPU); the aggregate is identical for any pool size.
func FleetStudy(devicesPerStore int, seed int64, workers int) ([]FleetOutcome, error) {
	profiles := []installer.Profile{
		installer.Amazon(), installer.Xiaomi(), installer.Baidu(),
		installer.Qihoo360(), installer.DTIgnite(), installer.HuaweiStore(),
	}
	type job struct {
		prof   installer.Profile
		device int
	}
	jobs := make([]job, 0, len(profiles)*devicesPerStore)
	for _, prof := range profiles {
		for d := 0; d < devicesPerStore; d++ {
			jobs = append(jobs, job{prof: prof, device: d})
		}
	}
	hijacked, err := par.Map(workers, len(jobs), func(i int) (bool, error) {
		j := jobs[i]
		s, err := NewScenario(j.prof, deriveSeed(seed, "fleet/"+j.prof.Package, int64(j.device)))
		if err != nil {
			return false, err
		}
		res, _, err := s.Hijack(attack.ConfigForStore(j.prof, attack.StrategyFileObserver))
		return res.Hijacked, err
	})
	if err != nil {
		return nil, err
	}
	byStore := make(map[string]*FleetOutcome, len(profiles))
	for _, prof := range profiles {
		byStore[prof.Package] = &FleetOutcome{Store: prof.Package}
	}
	for i, hit := range hijacked {
		o := byStore[jobs[i].prof.Package]
		o.Devices++
		if hit {
			o.Hijacked++
		}
	}
	names := make([]string, 0, len(byStore))
	for name := range byStore {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]FleetOutcome, 0, len(names))
	for _, name := range names {
		out = append(out, *byStore[name])
	}
	return out, nil
}

// FleetTable renders the fleet study.
func FleetTable(devicesPerStore int, seed int64, workers int) (Table, error) {
	outcomes, err := FleetStudy(devicesPerStore, seed, workers)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "Fleet Study",
		Title:  "Hijack reliability across a device fleet (per-device timing jitter)",
		Header: []string{"Store", "Devices", "Hijacked", "Rate"},
	}
	total, hijacked := 0, 0
	for _, o := range outcomes {
		total += o.Devices
		hijacked += o.Hijacked
		t.Rows = append(t.Rows, []string{
			o.Store, fmt.Sprintf("%d", o.Devices), fmt.Sprintf("%d", o.Hijacked), pct(o.Rate()),
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("fleet total: %d/%d devices hijacked", hijacked, total))
	return t, nil
}
