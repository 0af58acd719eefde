// Command gia-attack runs one Ghost Installer Attack scenario against a
// chosen store profile and prints the full AIT + attacker trace.
//
// Usage:
//
//	gia-attack [-store NAME] [-strategy file-observer|wait-and-see]
//	           [-defense none|fuse|dapp] [-seed N] [-timeline]
//
// NAME is one of the store profiles: amazon, amazon-v2, apkpure, baidu,
// dtignite, galaxy-apps, googleplay, huawei, qihoo360, slideme,
// sprintzone, tencent or xiaomi.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"github.com/ghost-installer/gia"
)

func main() {
	store := flag.String("store", "amazon", "target store profile")
	strategy := flag.String("strategy", "file-observer", "attack strategy")
	defenseName := flag.String("defense", "none", "defense to arm: none, fuse or dapp")
	seed := flag.Int64("seed", 1, "scenario seed")
	showTimeline := flag.Bool("timeline", false, "print the merged device event timeline")
	flag.Parse()
	if err := run(*store, *strategy, *defenseName, *seed, *showTimeline); err != nil {
		log.Fatal(err)
	}
}

func run(storeName, strategyName, defenseName string, seed int64, showTimeline bool) error {
	prof, err := gia.StoreProfile(storeName)
	if err != nil {
		return err
	}
	strat, err := gia.ParseAttackStrategy(strategyName)
	if err != nil {
		return err
	}

	scenario, err := gia.NewScenario(prof, seed)
	if err != nil {
		return err
	}
	var timeline *gia.ObsTrack
	if showTimeline {
		var stop func()
		if timeline, stop, err = gia.NewTimeline(scenario.Dev, prof.StagingDir); err != nil {
			return err
		}
		defer stop()
	}
	var dapp *gia.DAPP
	switch defenseName {
	case "none":
	case "fuse":
		gia.EnableFUSEPatch(scenario.Dev, true)
	case "dapp":
		dapp, err = gia.DeployDAPP(scenario.Dev, []string{prof.StagingDir})
		if err != nil {
			return err
		}
		if timeline != nil {
			dapp.OnAlert(func(a gia.DAPPAlert) {
				timeline.Instant("dapp", fmt.Sprintf("%s %s: %s", a.Kind, a.Package, a.Detail))
			})
		}
	default:
		return fmt.Errorf("unknown defense %q", defenseName)
	}

	res, atk, err := scenario.Hijack(gia.AttackConfigForStore(prof, strat))
	if err != nil {
		return err
	}

	fmt.Printf("store=%s strategy=%s defense=%s\n", prof.Package, strategyName, defenseName)
	fmt.Printf("result: hijacked=%v clean=%v attempts=%d err=%v\n", res.Hijacked, res.Clean(), res.Attempts, res.Err)
	if res.Installed != nil {
		fmt.Printf("installed: %s signed by %q\n", res.Installed.Name(), res.Installed.Cert.Subject)
	}
	fmt.Println("\nAIT trace:")
	for _, step := range res.Trace {
		fmt.Println("  ", step)
	}
	if n := len(atk.Replacements()); n > 0 {
		fmt.Printf("\nattacker replacements: %d\n", n)
		for _, r := range atk.Replacements() {
			fmt.Printf("  %s at t=%v\n", r.Path, r.At)
		}
	}
	if dapp != nil {
		fmt.Printf("\nDAPP alerts: %d\n", len(dapp.Alerts()))
		for _, a := range dapp.Alerts() {
			fmt.Printf("  %s %s: %s\n", a.Kind, a.Package, a.Detail)
		}
	}
	if timeline != nil {
		res.Record(timeline)
		fmt.Println("\nmerged device timeline:")
		return gia.WriteTimeline(os.Stdout, timeline)
	}
	return nil
}
