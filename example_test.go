package gia_test

// Godoc examples: runnable, deterministic documentation of the public API.

import (
	"fmt"

	"github.com/ghost-installer/gia"
)

// Example_hijack mounts the Section III-B installation hijack against the
// Amazon appstore profile and shows the outcome.
func Example_hijack() {
	scenario, err := gia.NewScenario(gia.AmazonProfile(), 42)
	if err != nil {
		panic(err)
	}
	cfg := gia.AttackConfigForStore(gia.AmazonProfile(), gia.StrategyFileObserver)
	atk := gia.NewTOCTOU(scenario.Mal, cfg, scenario.Target)
	if err := atk.Launch(); err != nil {
		panic(err)
	}
	defer atk.Stop()

	res := scenario.RunAIT()
	fmt.Println("hijacked:", res.Hijacked)
	fmt.Println("installed signer:", res.Installed.Cert.Subject)
	// Output:
	// hijacked: true
	// installed signer: com.fun.game-author
}

// Example_fusePatch shows the system-level defense blocking the same attack.
func Example_fusePatch() {
	scenario, err := gia.NewScenario(gia.AmazonProfile(), 42)
	if err != nil {
		panic(err)
	}
	gia.EnableFUSEPatch(scenario.Dev, true)
	cfg := gia.AttackConfigForStore(gia.AmazonProfile(), gia.StrategyFileObserver)
	atk := gia.NewTOCTOU(scenario.Mal, cfg, scenario.Target)
	if err := atk.Launch(); err != nil {
		panic(err)
	}
	defer atk.Stop()

	res := scenario.RunAIT()
	fmt.Println("hijacked:", res.Hijacked)
	fmt.Println("clean:", res.Clean())
	fmt.Println("replacements:", len(atk.Replacements()))
	// Output:
	// hijacked: false
	// clean: true
	// replacements: 0
}

// Example_dapp deploys the unprivileged DAPP defense (Section V-B) against
// the same attack: the hijack lands, but DAPP flags the suspicious
// replacement during the transaction and the signer change once the
// PACKAGE_ADDED broadcast arrives, which is after the installer has
// already reported its result.
func Example_dapp() {
	scenario, err := gia.NewScenario(gia.AmazonProfile(), 44)
	if err != nil {
		panic(err)
	}
	dapp, err := gia.DeployDAPP(scenario.Dev, []string{gia.AmazonProfile().StagingDir})
	if err != nil {
		panic(err)
	}
	cfg := gia.AttackConfigForStore(gia.AmazonProfile(), gia.StrategyFileObserver)
	atk := gia.NewTOCTOU(scenario.Mal, cfg, scenario.Target)
	if err := atk.Launch(); err != nil {
		panic(err)
	}
	defer atk.Stop()

	res := scenario.RunAIT()
	fmt.Println("hijacked:", res.Hijacked, "detected:", dapp.Thwarted(res.Requested))
	for _, alert := range dapp.Alerts() {
		fmt.Printf("%s %s (%s)\n", alert.Kind, alert.Package, alert.Detail)
	}
	// Output:
	// hijacked: true detected: true
	// race-suspected com.popular.app (MOVED_TO on staged apk 457ms after download)
	// signature-mismatch com.popular.app (downloaded signer 75503674, installed signer cb486b99)
}

// Example_classifier runs the Section IV installer classifier over a
// paper-scale corpus.
func Example_classifier() {
	c := gia.GenerateCorpus(gia.CorpusConfig{Seed: 2017, Scale: 1.0})
	cls := gia.ClassifyInstallers(c.PlayApps)
	fmt.Printf("installers: %d\n", cls.Installers)
	fmt.Printf("potentially vulnerable (of known): %.1f%%\n", 100*cls.VulnerableFracKnown())
	// Output:
	// installers: 1493
	// potentially vulnerable (of known): 83.7%
}
