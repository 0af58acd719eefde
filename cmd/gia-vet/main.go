// Command gia-vet is the repo's determinism linter. Every package under
// internal/ promises bit-identical output for a given seed at any worker
// count; that promise dies the moment one of them reads the wall clock,
// draws from the process-global rand source, or prints in map-iteration
// order. gia-vet walks those packages' syntax trees (stdlib go/ast only —
// no external analysis framework) and fails the build on:
//
//   - time.Now calls — simulated time comes from the scheduler, wall
//     time from the injectable obs.Stopwatch; a site that legitimately
//     needs the wall clock (e.g. the serve layer's idle-reclaim
//     bookkeeping, which never feeds simulation output) carries a
//     `//gia:wallclock — why` comment on the same line to pass;
//   - the global math/rand drawing functions (rand.Intn, rand.Float64,
//     rand.Shuffle, ...) — rand.New(rand.NewSource(seed)) is the only
//     blessed way to randomness;
//   - output emitted from inside a range over a map — Go randomizes map
//     iteration order, so printing or writing per-entry inside the loop
//     is nondeterministic by construction (collect the keys, sort,
//     then emit).
//
// It also flags process-global mutable maps: a package-level var in a
// non-test file whose type is a map, or a struct with a map field, and
// that has no initializer. Such a map is shared by every device and
// worker in the process and grows until its owner evicts; a fixture built
// once and passed as a value needs neither. Composite-literal lookup
// tables have an initializer and pass. A lock-free memo is as global as a
// map, so a package-level var of type sync/atomic Pointer[T] or Value
// with no initializer is flagged too. A global that earns its place
// carries a `//gia:global — why` comment on the line of its name.
//
// A note must excuse something: a //gia:wallclock note on a line with no
// time.Now call, or a //gia:global note on a line whose variable would
// pass anyway, is itself a finding, so no note outlives the code it
// excused.
//
// Usage:
//
//	gia-vet [dir ...]    # default: every package under ./internal
//
// Every directory gets every check. Exit code 0 when clean, 1 with
// findings, 2 on parse errors. The checks are syntactic: map-ness is
// inferred from declarations visible in the same file, which covers the
// checked packages without a type checker.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// globalRandFuncs are the math/rand package-level functions that draw
// from (or reseed) the shared global source. Constructors (New,
// NewSource, NewZipf) and the Rand/Source types are deliberately absent:
// seeded private generators are the blessed pattern.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true,
	"Read": true, "Seed": true,
}

// printFuncs are the fmt emitters whose call inside a map range makes
// the output order nondeterministic.
var printFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

func main() {
	dirs := os.Args[1:]
	if len(dirs) == 0 || (len(dirs) == 1 && (dirs[0] == "./..." || dirs[0] == "...")) {
		var err error
		if dirs, err = defaultDirs("."); err != nil {
			fmt.Fprintf(os.Stderr, "gia-vet: %v\n", err)
			os.Exit(2)
		}
	}
	code := 0
	for _, dir := range dirs {
		files, err := goFiles(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gia-vet: %v\n", err)
			code = 2
			continue
		}
		for _, path := range files {
			findings, err := vetFile(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "gia-vet: %v\n", err)
				code = 2
				continue
			}
			for _, f := range findings {
				fmt.Println(f)
				if code == 0 {
					code = 1
				}
			}
		}
	}
	os.Exit(code)
}

// defaultDirs lists every package directory under root/internal.
func defaultDirs(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && e.Name() == "testdata" {
			return filepath.SkipDir
		}
		if e.IsDir() {
			out = append(out, path)
		}
		return nil
	})
	return out, err
}

// goFiles lists the .go files directly in dir (no recursion: defaultDirs
// walks the tree).
func goFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out, nil
}

// vetFile parses one source file and runs the three determinism checks
// and, test files excepted, the globals check over it.
func vetFile(path string) ([]string, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	v := &vetter{fset: fset, randPkg: importName(file, "math/rand"), timePkg: importName(file, "time")}
	globalOK := v.guardedLines(file, globalGuard)
	if !strings.HasSuffix(path, "_test.go") {
		v.checkGlobals(file, globalOK)
	}
	v.wallclockOK = v.guardedLines(file, wallclockGuard)
	v.collectMapIdents(file)
	ast.Inspect(file, v.visit)
	v.reportIdleGuards(file, wallclockGuard, v.wallclockOK, "time.Now call")
	v.reportIdleGuards(file, globalGuard, globalOK, "package-level map or atomic memo")
	return v.findings, nil
}

// wallclockGuard is the comment marker acknowledging a deliberate wall
// clock read. It must sit on the same line as the time.Now call.
const wallclockGuard = "//gia:wallclock"

// globalGuard is the comment marker acknowledging a process-global
// mutable map or atomic memo. It must sit on the same line as the
// variable's name.
const globalGuard = "//gia:global"

// guardedLines maps each line carrying a guard comment to false; findings
// its guard covers are suppressed on those lines, and guarded marks the
// line true once it suppressed one.
func (v *vetter) guardedLines(file *ast.File, guard string) map[int]bool {
	lines := map[int]bool{}
	v.eachGuard(file, guard, func(c *ast.Comment) { lines[v.fset.Position(c.Pos()).Line] = false })
	return lines
}

// eachGuard calls fn on every comment of file that is a guard note, in
// source order.
func (v *vetter) eachGuard(file *ast.File, guard string, fn func(*ast.Comment)) {
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, guard) {
				fn(c)
			}
		}
	}
}

// guarded reports whether pos sits on a line of lines, and marks that
// line's note as used.
func (v *vetter) guarded(lines map[int]bool, pos token.Pos) bool {
	line := v.fset.Position(pos).Line
	if _, ok := lines[line]; !ok {
		return false
	}
	lines[line] = true
	return true
}

// reportIdleGuards flags each guard note that suppressed no finding: it
// sits on a line with nothing for it to excuse.
func (v *vetter) reportIdleGuards(file *ast.File, guard string, lines map[int]bool, what string) {
	v.eachGuard(file, guard, func(c *ast.Comment) {
		if !lines[v.fset.Position(c.Pos()).Line] {
			v.report(c.Pos(), "%s note guards nothing: no %s on this line needs it (delete the note)", guard, what)
		}
	})
}

// checkGlobals flags each package-level var whose type is a map, a
// struct with a map field, or a sync/atomic Pointer or Value, that has no
// initializer and no //gia:global guard on its name's line.
func (v *vetter) checkGlobals(file *ast.File, guarded map[int]bool) {
	atomicPkg := importName(file, "sync/atomic")
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			if len(vs.Values) > 0 {
				continue
			}
			kind := "map"
			if !holdsMap(vs.Type) {
				if kind = atomicHolder(vs.Type, atomicPkg); kind == "" {
					continue
				}
			}
			for _, name := range vs.Names {
				if !v.guarded(guarded, name.Pos()) {
					v.report(name.Pos(), "package-level %s %s: process-global mutable state (build the value once and pass it, or justify with //gia:global)", kind, name.Name)
				}
			}
		}
	}
}

// atomicHolder names a declared type that is sync/atomic's Pointer[T] or
// Value, imported as pkg ("" for any other type).
func atomicHolder(t ast.Expr, pkg string) string {
	if ix, ok := t.(*ast.IndexExpr); ok {
		t = ix.X
	}
	sel, ok := t.(*ast.SelectorExpr)
	if !ok || pkg == "" || (sel.Sel.Name != "Pointer" && sel.Sel.Name != "Value") {
		return ""
	}
	if id, ok := sel.X.(*ast.Ident); !ok || id.Name != pkg {
		return ""
	}
	return "atomic." + sel.Sel.Name
}

// holdsMap reports whether a declared type is a map or a struct literal
// with a map field.
func holdsMap(t ast.Expr) bool {
	if st, ok := t.(*ast.StructType); ok {
		for _, f := range st.Fields.List {
			if isMapType(f.Type) {
				return true
			}
		}
		return false
	}
	return isMapType(t)
}

// importName returns the identifier the file binds an import path to
// ("" when the path is not imported; the default name when unaliased).
func importName(file *ast.File, path string) string {
	for _, imp := range file.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || p != path {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return path[strings.LastIndex(path, "/")+1:]
	}
	return ""
}

type vetter struct {
	fset        *token.FileSet
	randPkg     string // identifier math/rand is imported as, "" if absent
	timePkg     string // identifier time is imported as, "" if absent
	mapNames    map[string]bool
	wallclockOK map[int]bool // lines guarded by //gia:wallclock (see guardedLines)
	findings    []string
}

// collectMapIdents records every identifier the file visibly declares
// with a map type: var/field declarations, make(map...) and map-literal
// assignments, and function parameters. Purely syntactic — good enough
// to decide "is this range over a map" inside the checked packages.
func (v *vetter) collectMapIdents(file *ast.File) {
	v.mapNames = map[string]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ValueSpec:
			if isMapType(n.Type) {
				for _, name := range n.Names {
					v.mapNames[name.Name] = true
				}
			}
		case *ast.Field:
			if isMapType(n.Type) {
				for _, name := range n.Names {
					v.mapNames[name.Name] = true
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				id, ok := n.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				if isMapExpr(rhs) {
					v.mapNames[id.Name] = true
				}
			}
		}
		return true
	})
}

func isMapType(t ast.Expr) bool {
	_, ok := t.(*ast.MapType)
	return ok
}

// isMapExpr reports whether an expression is syntactically map-valued:
// a map literal, or make(map[...]...).
func isMapExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		return isMapType(e.Type)
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "make" && len(e.Args) > 0 {
			return isMapType(e.Args[0])
		}
	}
	return false
}

func (v *vetter) report(pos token.Pos, format string, args ...any) {
	v.findings = append(v.findings,
		fmt.Sprintf("%s: %s", v.fset.Position(pos), fmt.Sprintf(format, args...)))
}

func (v *vetter) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.CallExpr:
		sel, ok := n.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Obj != nil { // shadowed by a local binding
			return true
		}
		if v.timePkg != "" && pkg.Name == v.timePkg && sel.Sel.Name == "Now" &&
			!v.guarded(v.wallclockOK, n.Pos()) {
			v.report(n.Pos(), "time.Now: wall clock in a deterministic package (use the scheduler's virtual clock or obs.Stopwatch, or justify with //gia:wallclock)")
		}
		if v.randPkg != "" && pkg.Name == v.randPkg && globalRandFuncs[sel.Sel.Name] {
			v.report(n.Pos(), "rand.%s: process-global rand source (use rand.New(rand.NewSource(seed)))", sel.Sel.Name)
		}
	case *ast.RangeStmt:
		if !v.rangesOverMap(n.X) {
			return true
		}
		ast.Inspect(n.Body, func(inner ast.Node) bool {
			call, ok := inner.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := printCallName(call); ok {
				v.report(call.Pos(), "%s inside a range over a map: iteration order is random (sort the keys first)", name)
			}
			return true
		})
	}
	return true
}

// rangesOverMap decides, syntactically, whether the ranged expression is
// a map: a map literal inline, or an identifier this file declares with
// a map type.
func (v *vetter) rangesOverMap(x ast.Expr) bool {
	switch x := x.(type) {
	case *ast.CompositeLit:
		return isMapType(x.Type)
	case *ast.CallExpr:
		return isMapExpr(x)
	case *ast.Ident:
		return v.mapNames[x.Name]
	}
	return false
}

// printCallName matches the calls that emit output: the fmt print
// family and Write/WriteString on some writer.
func printCallName(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "fmt" && printFuncs[sel.Sel.Name] {
		return "fmt." + sel.Sel.Name, true
	}
	if sel.Sel.Name == "WriteString" || sel.Sel.Name == "Write" {
		return "." + sel.Sel.Name, true
	}
	return "", false
}
