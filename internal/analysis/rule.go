package analysis

import "fmt"

// Severity ranks a finding.
type Severity int

// Severities.
const (
	// SeverityInfo: a capability marker (install API, market links).
	SeverityInfo Severity = iota
	// SeverityWarning: a pattern that degrades security or analyzability.
	SeverityWarning
	// SeverityVuln: the GIA-vulnerable pattern itself.
	SeverityVuln
)

func (s Severity) String() string {
	switch s {
	case SeverityInfo:
		return "info"
	case SeverityWarning:
		return "warning"
	case SeverityVuln:
		return "vuln"
	default:
		return fmt.Sprintf("severity(%d)", int(s))
	}
}

// Finding is one rule hit with full provenance.
type Finding struct {
	RuleID   string
	Severity Severity
	File     string
	Class    string
	Method   string
	Line     int
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s (%s %s)", f.File, f.Line, f.RuleID, f.Message, f.Class, f.Method)
}

// MethodInfo bundles a method with lazily built analysis facts so rules
// share one CFG and one reaching-definitions fixpoint per method. A
// MethodInfo is not safe for concurrent use; the scanner gives each worker
// its own.
type MethodInfo struct {
	Method *Method
	cfg    *CFG
	reach  *ReachingDefs
}

// CFG returns the method's control-flow graph, building it on first use.
func (mi *MethodInfo) CFG() *CFG {
	if mi.cfg == nil {
		mi.cfg = BuildCFG(mi.Method)
	}
	return mi.cfg
}

// Reaching returns the method's reaching-definitions facts, computing them
// on first use.
func (mi *MethodInfo) Reaching() *ReachingDefs {
	if mi.reach == nil {
		mi.reach = Reaching(mi.CFG())
	}
	return mi.reach
}

// ClassInfo is the unit rules check: a parsed class plus per-method facts
// and lazily built whole-class facts (call graph, taint summaries).
type ClassInfo struct {
	Class   *Class
	Methods []*MethodInfo

	cg   *CallGraph
	sums *ClassSummaries
}

// NewClassInfo wraps a parsed class for rule checking.
func NewClassInfo(c *Class) *ClassInfo {
	ci := &ClassInfo{Class: c, Methods: make([]*MethodInfo, len(c.Methods))}
	for i, m := range c.Methods {
		ci.Methods[i] = &MethodInfo{Method: m}
	}
	return ci
}

// CallGraph returns the class-local call graph, building it on first use.
func (ci *ClassInfo) CallGraph() *CallGraph {
	if ci.cg == nil {
		ci.cg = BuildCallGraph(ci.Class)
	}
	return ci.cg
}

// Summaries returns the class's interprocedural taint summaries, computing
// them on first use.
func (ci *ClassInfo) Summaries() *ClassSummaries {
	if ci.sums == nil {
		ci.sums = ComputeSummaries(ci)
	}
	return ci.sums
}

// Rule is one pluggable GIA detector.
type Rule interface {
	// ID is the stable rule identifier, e.g. "gia/sdcard-staging".
	ID() string
	// Severity is the rank attached to this rule's findings.
	Severity() Severity
	// Description is a one-line summary for CLI output.
	Description() string
	// Check reports every hit in the class.
	Check(ci *ClassInfo) []Finding
}

// dedupeFindings collapses findings sharing (RuleID, Class, Method, Line),
// keeping the first emission. A rule that resolves one call site through
// several registers (or several dataflow paths) otherwise reports the same
// defect once per path — one defect per rule per line is the contract.
func dedupeFindings(fs []Finding) []Finding {
	if len(fs) < 2 {
		return fs
	}
	type site struct {
		rule, class, method string
		line                int
	}
	seen := make(map[site]bool, len(fs))
	out := fs[:0]
	for _, f := range fs {
		k := site{f.RuleID, f.Class, f.Method, f.Line}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, f)
	}
	return out
}

// finding builds a Finding for rule r at instruction ins of method m.
func finding(r Rule, m *Method, ins Instruction, msg string) Finding {
	return Finding{
		RuleID:   r.ID(),
		Severity: r.Severity(),
		File:     m.File,
		Class:    m.Class,
		Method:   m.Name,
		Line:     ins.Line,
		Message:  msg,
	}
}
