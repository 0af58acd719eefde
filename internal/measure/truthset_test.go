package measure

import (
	"testing"

	"github.com/ghost-installer/gia/internal/analysis"
	"github.com/ghost-installer/gia/internal/corpus"
)

// TestTruthSetAccuracy is the taint / anti-repackaging accuracy gate: the
// engine must agree with every hand-labelled case in corpus.TruthSet() —
// 100% on true positives AND true negatives. verify.sh runs this by name;
// a template or rule drift that flips any single case fails the build.
func TestTruthSetAccuracy(t *testing.T) {
	cases := corpus.TruthSet()
	if len(cases) < 8 {
		t.Fatalf("truth set shrank to %d cases", len(cases))
	}
	eng := analysis.NewEngine()
	correct := 0
	for _, tc := range cases {
		rep := eng.ScanAPK(corpus.BuildAPKFor(tc.Meta))
		fired := map[string]bool{}
		for _, f := range rep.Findings {
			fired[f.RuleID] = true
		}
		ok := true
		for rule, want := range map[string]bool{
			analysis.RuleIDTaintStaging:   tc.WantTaintStaging,
			analysis.RuleIDSDCardStaging:  tc.WantSDCardStaging,
			analysis.RuleIDSelfSigCheck:   tc.WantSelfSigCheck,
			analysis.RuleIDIntegrityCheck: tc.WantIntegrity,
		} {
			if fired[rule] != want {
				ok = false
				t.Errorf("%s: %s fired=%v want %v", tc.Name, rule, fired[rule], want)
			}
		}
		if ok {
			correct++
		}
	}
	if correct != len(cases) {
		t.Errorf("truth-set accuracy %d/%d, gate requires 100%%", correct, len(cases))
	}
}

// TestTruthSetCoversBothPolarities guards the gate itself: a truth set
// where some detector never appears as a TP (or never as a TN) couldn't
// catch a rule that always- or never-fires.
func TestTruthSetCoversBothPolarities(t *testing.T) {
	type tally struct{ tp, tn int }
	polar := map[string]*tally{
		analysis.RuleIDTaintStaging:   {},
		analysis.RuleIDSDCardStaging:  {},
		analysis.RuleIDSelfSigCheck:   {},
		analysis.RuleIDIntegrityCheck: {},
	}
	for _, tc := range corpus.TruthSet() {
		for rule, want := range map[string]bool{
			analysis.RuleIDTaintStaging:   tc.WantTaintStaging,
			analysis.RuleIDSDCardStaging:  tc.WantSDCardStaging,
			analysis.RuleIDSelfSigCheck:   tc.WantSelfSigCheck,
			analysis.RuleIDIntegrityCheck: tc.WantIntegrity,
		} {
			if want {
				polar[rule].tp++
			} else {
				polar[rule].tn++
			}
		}
	}
	for rule, c := range polar {
		if c.tp == 0 || c.tn == 0 {
			t.Errorf("%s: truth set has %d TP / %d TN cases; both polarities required", rule, c.tp, c.tn)
		}
	}
}
