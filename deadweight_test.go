package hedc

// The dead-weight audit: a go/types pass over the whole module that fails
// on code, knobs and tables no caller uses. It reports five classes of
// finding:
//
//	(i)   an exported func, type, var or method that no file in the module
//	      references, tests and benchmark/ included. Constants are exempt
//	      (they are enum members), and so is a method that implements an
//	      interface declared in the module or in an imported stdlib package;
//	(ii)  an exported field of an exported *Options, *Config or *Params
//	      struct that no code sets, tests included. An assignment in the
//	      field's own package guarded by an if whose condition reads the
//	      same field is the field's defaulting code and is not a set;
//	(iii) an identifier or field of the first two kinds that only its own
//	      package's _test.go files reference or set;
//	(iv)  a func or method, exported or not, that no binary reaches. The
//	      call graph is conservative: its nodes are the func and method
//	      declarations of the module's non-test files (a func literal
//	      belongs to its enclosing declaration); its roots are the main of
//	      every package main, every init and package-level var
//	      initializer, the exported API of the root package and of the
//	      packages no binary imports, and every method that implements a
//	      stdlib interface; an edge is any reference from a reached body
//	      to a module func or method, and a reference to an interface
//	      method M reaches every module method named M;
//	(v)   a table that the code (iv) reaches writes and never reads. A
//	      write is a schema.Table* constant as the first argument of a
//	      call of a method named Insert, Update or Delete (minidb's Tx,
//	      Engine and Batch write through these); a read is one as the
//	      Table of a minidb.Query or colseg.Query literal, as the
//	      argument of TableLen or TableSnap, or in a colseg.Options'
//	      Tables.
//
// Classes (i) and (ii) must be empty. Class (iii), (iv) and (v) findings
// are listed in testdata/deadweight.allow, one "kind import/path.Name"
// (or "table name") per line under a "# reason" heading that says why
// the name stays; a new finding fails the test, and so do a line that is
// no longer a finding and a line with no heading, so the list can only
// shrink.
//
// It uses the standard library only: one `go list -deps -test -export`
// supplies the file lists and the gc export data of the stdlib imports,
// and every module package and test variant is type-checked from source.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

const deadweightAllowFile = "testdata/deadweight.allow"

// listedPackage is the part of `go list -json` output the audit reads.
type listedPackage struct {
	Dir        string
	ImportPath string
	Name       string
	Export     string
	ForTest    string
	GoFiles    []string
	Deps       []string
	ImportMap  map[string]string
	Module     *struct{ Main bool }
}

// auditUse records who references (or, for an option field, sets) an
// object: production code anywhere, a test of another package, or a test
// of the object's own package.
type auditUse struct {
	prod, otherTest, ownTest bool
}

func (u *auditUse) add(ownDir, siteFile string) {
	switch {
	case !strings.HasSuffix(siteFile, "_test.go"):
		u.prod = true
	case filepath.Dir(siteFile) == ownDir:
		u.ownTest = true
	default:
		u.otherTest = true
	}
}

// auditCandidate is one exported declaration the audit tracks.
type auditCandidate struct {
	kind string // func, type, var, method or field
	name string // import/path.Name, import/path.Type.Method or .Type.Field
	dir  string
	obj  types.Object
}

type deadweightAudit struct {
	fset    *token.FileSet
	listed  map[string]*listedPackage
	files   map[string]*ast.File
	checked map[string]*types.Package
	infos   map[string]*types.Info
	std     types.Importer
	stdUsed map[string]bool
}

func TestDeadWeightAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the Go toolchain")
	}
	start := time.Now()
	a := loadDeadweightAudit(t)
	dead, unset, testOnly := a.findings()
	reachStart := time.Now()
	unreached, reached := a.unreached(t)
	t.Logf("audit of %d packages took %v (reachability %v, %d unreached)", len(a.checked),
		time.Since(start).Round(time.Millisecond), time.Since(reachStart).Round(time.Millisecond), len(unreached))

	for _, f := range dead {
		t.Errorf("(i) %s %s: no file in the module references it; delete it", f.kind, f.name)
	}
	for _, f := range unset {
		t.Errorf("(ii) field %s: no code sets it; make it an unexported constant", f.name)
	}

	allowed := readDeadweightAllow(t)
	found := map[string]bool{}
	for _, f := range testOnly {
		line := f.kind + " " + f.name
		found[line] = true
		if !allowed[line] {
			t.Errorf("(iii) %s: only its own package's tests use it; unexport or delete it (%s only shrinks)", line, deadweightAllowFile)
		}
	}
	for _, line := range unreached {
		if !found[line] && !allowed[line] {
			t.Errorf("(iv) %s: no binary reaches it; delete it (%s only shrinks)", line, deadweightAllowFile)
		}
		found[line] = true
	}
	for _, line := range writeOnlyTables(reached) {
		if !allowed[line] {
			t.Errorf("(v) %s: reached code writes it and nothing reads it; stop writing it (%s only shrinks)", line, deadweightAllowFile)
		}
		found[line] = true
	}
	for line := range allowed {
		if !found[line] {
			t.Errorf("%s: %q is no longer a finding; remove the line", deadweightAllowFile, line)
		}
	}
}

func readDeadweightAllow(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(deadweightAllowFile)
	if err != nil {
		t.Fatal(err)
	}
	allowed, problems := parseDeadweightAllow(data)
	for _, p := range problems {
		t.Errorf("%s: %s", deadweightAllowFile, p)
	}
	return allowed
}

// parseDeadweightAllow reads the allow list: paragraphs separated by blank
// lines, each a "# reason" heading of one or more comment lines followed
// by the findings kept for that reason. A line before any heading in its
// paragraph has no reason and is a problem, and so is a duplicate.
func parseDeadweightAllow(data []byte) (allowed map[string]bool, problems []string) {
	allowed = map[string]bool{}
	reason := false
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			reason = false
		case strings.HasPrefix(line, "#"):
			reason = true
		case allowed[line]:
			problems = append(problems, fmt.Sprintf("duplicate line %q", line))
		case !reason:
			problems = append(problems, fmt.Sprintf("%q sits under no # reason heading", line))
			allowed[line] = true
		default:
			allowed[line] = true
		}
	}
	return allowed, problems
}

func TestDeadWeightAllowNeedsReason(t *testing.T) {
	for _, tt := range []struct {
		name, text string
		problems   int
	}{
		{"under a heading", "# a paper capability\nfunc p.A\nfunc p.B\n", 0},
		{"heading of two lines", "# a fault seam\n# for torture\nmethod p.T.M\n", 0},
		{"no heading", "func p.A\n", 1},
		{"blank line ends the heading", "# reason\nfunc p.A\n\nfunc p.B\n", 1},
		{"duplicate", "# reason\nfunc p.A\nfunc p.A\n", 1},
	} {
		allowed, problems := parseDeadweightAllow([]byte(tt.text))
		if len(problems) != tt.problems {
			t.Errorf("%s: problems %q, want %d", tt.name, problems, tt.problems)
		}
		if !allowed["func p.A"] && !allowed["method p.T.M"] {
			t.Errorf("%s: the findings were not read: %v", tt.name, allowed)
		}
	}
}

// loadDeadweightAudit lists the module with its test variants and
// type-checks every module package from source.
func loadDeadweightAudit(t *testing.T) *deadweightAudit {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-test", "-export", "-json", "./...")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.Bytes())
	}
	a := &deadweightAudit{
		fset:    token.NewFileSet(),
		listed:  map[string]*listedPackage{},
		files:   map[string]*ast.File{},
		checked: map[string]*types.Package{},
		infos:   map[string]*types.Info{},
		stdUsed: map[string]bool{},
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("go list output: %v", err)
		}
		a.listed[p.ImportPath] = p
	}
	a.std = importer.ForCompiler(a.fset, "gc", func(path string) (io.ReadCloser, error) {
		p := a.listed[path]
		if p == nil || p.Export == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(p.Export)
	})
	ids := make([]string, 0, len(a.listed))
	for id := range a.listed {
		if a.inModule(id) {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		if _, err := a.check(id); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

// inModule reports whether id names a main-module package or test variant
// to check from source; the generated test mains are skipped.
func (a *deadweightAudit) inModule(id string) bool {
	p := a.listed[id]
	return p != nil && p.Module != nil && p.Module.Main && !strings.HasSuffix(id, ".test")
}

// check type-checks one listed package from source, its module imports
// first. Each file is parsed once and shared by every variant that
// compiles it, so an object's token.Pos is the same in all of them.
func (a *deadweightAudit) check(id string) (*types.Package, error) {
	if pkg := a.checked[id]; pkg != nil {
		return pkg, nil
	}
	p := a.listed[id]
	var files []*ast.File
	for _, name := range p.GoFiles {
		path := filepath.Join(p.Dir, name)
		f := a.files[path]
		if f == nil {
			var err error
			f, err = parser.ParseFile(a.fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			a.files[path] = f
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if mapped, ok := p.ImportMap[path]; ok {
			path = mapped
		}
		if a.inModule(path) {
			return a.check(path)
		}
		a.stdUsed[path] = true
		return a.std.Import(path)
	})}
	path, _, _ := strings.Cut(id, " ")
	pkg, err := conf.Check(path, a.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %v", id, err)
	}
	a.checked[id] = pkg
	a.infos[id] = info
	return pkg, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// auditBody is a reached declaration body or root var initializer.
type auditBody struct {
	node ast.Node
	info *types.Info
}

// unreached returns the class-(iv) findings, "func path.Name" or "method
// path.Type.Name", sorted: the declarations the call graph rooted at the
// binaries and the library API does not reach. It also returns the code
// the graph does reach. The test runs in the module root, so the root
// package is the one listed in the working directory.
func (a *deadweightAudit) unreached(t *testing.T) (out []string, reached []auditBody) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	type fnNode struct {
		decl    *ast.FuncDecl
		info    *types.Info
		line    string
		reached bool
	}
	nodes := map[token.Pos]*fnNode{}
	methods := map[string][]*fnNode{}
	var queue []*fnNode
	reach := func(n *fnNode) {
		if n != nil && !n.reached {
			n.reached = true
			queue = append(queue, n)
		}
	}
	var rootExprs []ast.Node
	var rootInfos []*types.Info
	imported := a.binaryDeps()
	stdIfaces := a.stdInterfaces()
	for _, id := range sortedKeys(a.infos) {
		p := a.listed[id]
		if p.ForTest != "" {
			continue
		}
		info := a.infos[id]
		apiRoot := p.Dir == root || (p.Name != "main" && !imported[id])
		for _, f := range a.filesOf(id) {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					n := &fnNode{decl: d, info: info, line: "func " + id + "." + d.Name.Name}
					recv := ""
					if d.Recv != nil {
						recv = receiverName(d)
						n.line = "method " + id + "." + recv + "." + d.Name.Name
						methods[d.Name.Name] = append(methods[d.Name.Name], n)
					}
					nodes[d.Name.Pos()] = n
					switch {
					case d.Recv == nil && d.Name.Name == "init",
						d.Recv == nil && d.Name.Name == "main" && p.Name == "main",
						apiRoot && d.Name.IsExported() && (recv == "" || ast.IsExported(recv)),
						d.Recv != nil && implementsAny(info.Defs[d.Name].(*types.Func), stdIfaces):
						reach(n)
					}
				case *ast.GenDecl:
					if d.Tok != token.VAR {
						continue
					}
					for _, spec := range d.Specs {
						for _, v := range spec.(*ast.ValueSpec).Values {
							rootExprs = append(rootExprs, v)
							rootInfos = append(rootInfos, info)
						}
					}
				}
			}
		}
	}
	calledNames := map[string]bool{}
	visit := func(body ast.Node, info *types.Info) {
		ast.Inspect(body, func(x ast.Node) bool {
			id, ok := x.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := info.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			fn = fn.Origin()
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				if !calledNames[fn.Name()] {
					calledNames[fn.Name()] = true
					for _, m := range methods[fn.Name()] {
						reach(m)
					}
				}
				return true
			}
			reach(nodes[fn.Pos()])
			return true
		})
	}
	for i, x := range rootExprs {
		visit(x, rootInfos[i])
		reached = append(reached, auditBody{x, rootInfos[i]})
	}
	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if n.decl.Body != nil {
			visit(n.decl.Body, n.info)
			reached = append(reached, auditBody{n.decl.Body, n.info})
		}
	}
	for _, n := range nodes {
		if !n.reached {
			out = append(out, n.line)
		}
	}
	sort.Strings(out)
	return out, reached
}

// tableReadFields names the struct fields whose schema.Table* constants
// class (v) counts as reads.
var tableReadFields = map[string]string{
	"repro/internal/minidb.Query":   "Table",
	"repro/internal/colseg.Query":   "Table",
	"repro/internal/colseg.Options": "Tables",
}

// writeOnlyTables returns the class-(v) findings, "table name", sorted:
// the tables that reached code writes and never reads.
func writeOnlyTables(reached []auditBody) []string {
	written, read := map[string]bool{}, map[string]bool{}
	for _, b := range reached {
		mark := func(m map[string]bool, x ast.Expr) {
			if name, ok := schemaTable(x, b.info); ok {
				m[name] = true
			}
		}
		ast.Inspect(b.node, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.CallExpr:
				sel, ok := x.Fun.(*ast.SelectorExpr)
				if !ok || len(x.Args) == 0 {
					break
				}
				switch sel.Sel.Name {
				case "Insert", "Update", "Delete":
					mark(written, x.Args[0])
				case "TableLen", "TableSnap":
					mark(read, x.Args[0])
				}
			case *ast.CompositeLit:
				named, ok := b.info.Types[x].Type.(*types.Named)
				if !ok || named.Obj().Pkg() == nil {
					break
				}
				key := tableReadFields[named.Obj().Pkg().Path()+"."+named.Obj().Name()]
				if key == "" {
					break
				}
				for _, elt := range x.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok && kv.Key.(*ast.Ident).Name == key {
						ast.Inspect(kv.Value, func(v ast.Node) bool {
							if e, ok := v.(ast.Expr); ok {
								mark(read, e)
							}
							return true
						})
					}
				}
			}
			return true
		})
	}
	var out []string
	for name := range written {
		if !read[name] {
			out = append(out, "table "+name)
		}
	}
	sort.Strings(out)
	return out
}

// schemaTable resolves x to the table name of a schema.Table* constant.
func schemaTable(x ast.Expr, info *types.Info) (string, bool) {
	var id *ast.Ident
	switch x := ast.Unparen(x).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return "", false
	}
	c, ok := info.Uses[id].(*types.Const)
	if !ok || c.Pkg().Path() != "repro/internal/schema" || !strings.HasPrefix(c.Name(), "Table") {
		return "", false
	}
	return constant.StringVal(c.Val()), true
}

// binaryDeps returns the module packages that some package main imports,
// directly or not.
func (a *deadweightAudit) binaryDeps() map[string]bool {
	deps := map[string]bool{}
	for id, p := range a.listed {
		if p.Name == "main" && p.ForTest == "" && a.inModule(id) {
			for _, d := range p.Deps {
				deps[d] = true
			}
		}
	}
	return deps
}

// findings classifies every candidate declaration of the module.
func (a *deadweightAudit) findings() (dead, unset, testOnly []auditCandidate) {
	cands := a.candidates()
	byObj := map[token.Pos]*auditCandidate{}
	for i := range cands {
		byObj[cands[i].obj.Pos()] = &cands[i]
	}
	refs := map[token.Pos]*auditUse{}
	sets := map[token.Pos]*auditUse{}
	for _, id := range sortedKeys(a.infos) {
		info := a.infos[id]
		for _, f := range a.filesOf(id) {
			siteFile := a.fset.File(f.Pos()).Name()
			walkUses(f, info, byObj, func(c *auditCandidate) {
				use(refs, c).add(c.dir, siteFile)
			})
			walkSets(f, siteFile, info, byObj, func(c *auditCandidate) {
				use(sets, c).add(c.dir, siteFile)
			})
		}
	}
	ifaces := a.interfaces()
	for _, c := range cands {
		u := refs[c.obj.Pos()]
		if c.kind == "field" {
			u = sets[c.obj.Pos()]
		}
		switch {
		case u != nil && (u.prod || u.otherTest):
		case c.kind == "method" && implementsAny(c.obj.(*types.Func), ifaces):
		case u != nil && u.ownTest:
			testOnly = append(testOnly, c)
		case c.kind == "field":
			unset = append(unset, c)
		default:
			dead = append(dead, c)
		}
	}
	return dead, unset, testOnly
}

func use(m map[token.Pos]*auditUse, c *auditCandidate) *auditUse {
	u := m[c.obj.Pos()]
	if u == nil {
		u = new(auditUse)
		m[c.obj.Pos()] = u
	}
	return u
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (a *deadweightAudit) filesOf(id string) []*ast.File {
	p := a.listed[id]
	files := make([]*ast.File, len(p.GoFiles))
	for i, name := range p.GoFiles {
		files[i] = a.files[filepath.Join(p.Dir, name)]
	}
	return files
}

// candidates lists the tracked declarations in the non-test files of the
// module's packages, in source order.
func (a *deadweightAudit) candidates() []auditCandidate {
	var cands []auditCandidate
	for _, id := range sortedKeys(a.infos) {
		p := a.listed[id]
		if p.ForTest != "" {
			continue
		}
		info := a.infos[id]
		add := func(kind string, ident *ast.Ident, name string) {
			if ident.IsExported() {
				cands = append(cands, auditCandidate{kind, id + "." + name, p.Dir, info.Defs[ident]})
			}
		}
		for _, f := range a.filesOf(id) {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						add("func", d.Name, d.Name.Name)
						continue
					}
					if recv := receiverName(d); recv != "" {
						add("method", d.Name, recv+"."+d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add("type", s.Name, s.Name.Name)
							if isOptionsStruct(s) {
								for _, fld := range s.Type.(*ast.StructType).Fields.List {
									for _, n := range fld.Names {
										add("field", n, s.Name.Name+"."+n.Name)
									}
								}
							}
						case *ast.ValueSpec:
							if d.Tok == token.VAR {
								for _, n := range s.Names {
									add("var", n, n.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	return cands
}

func receiverName(d *ast.FuncDecl) string {
	x := d.Recv.List[0].Type
	if star, ok := x.(*ast.StarExpr); ok {
		x = star.X
	}
	switch r := x.(type) {
	case *ast.IndexExpr:
		x = r.X
	case *ast.IndexListExpr:
		x = r.X
	}
	if id, ok := x.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func isOptionsStruct(s *ast.TypeSpec) bool {
	if _, ok := s.Type.(*ast.StructType); !ok || !s.Name.IsExported() {
		return false
	}
	for _, suffix := range []string{"Options", "Config", "Params"} {
		if strings.HasSuffix(s.Name.Name, suffix) {
			return true
		}
	}
	return false
}

// walkUses reports each reference in f to a candidate. A declaration's
// references to itself do not count: a method's receiver type, a
// recursive call, a type naming itself in its own definition.
func walkUses(f *ast.File, info *types.Info, byObj map[token.Pos]*auditCandidate, report func(*auditCandidate)) {
	for _, decl := range f.Decls {
		var self []token.Pos
		inspect := []ast.Node{decl}
		switch d := decl.(type) {
		case *ast.FuncDecl:
			self = append(self, d.Name.Pos())
			inspect = []ast.Node{d.Type}
			if d.Body != nil {
				inspect = append(inspect, d.Body)
			}
		case *ast.GenDecl:
			inspect = inspect[:0]
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					self = append(self, s.Name.Pos())
				case *ast.ValueSpec:
					for _, n := range s.Names {
						self = append(self, n.Pos())
					}
				}
				inspect = append(inspect, spec)
			}
		}
		for _, n := range inspect {
			ast.Inspect(n, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := info.Uses[id]
				if obj == nil {
					return true
				}
				pos := obj.Pos()
				for _, s := range self {
					if s == pos {
						return true
					}
				}
				if c := byObj[pos]; c != nil {
					report(c)
				}
				return true
			})
		}
	}
}

// walkSets reports each place in f that sets a candidate field: an
// assignment or increment outside the field's own defaulting code, a
// composite literal (keyed or positional), or taking the field's address.
func walkSets(f *ast.File, siteFile string, info *types.Info, byObj map[token.Pos]*auditCandidate, report func(*auditCandidate)) {
	field := func(x ast.Expr) *auditCandidate {
		sel, ok := ast.Unparen(x).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		if c := byObj[objPos(info.Uses[sel.Sel])]; c != nil && c.kind == "field" {
			return c
		}
		return nil
	}
	var stack []ast.Node
	defaulting := func(c *auditCandidate) bool {
		if filepath.Dir(siteFile) != c.dir {
			return false
		}
		for _, n := range stack {
			if ifs, ok := n.(*ast.IfStmt); ok && readsObj(ifs.Cond, info, c.obj) {
				return true
			}
		}
		return false
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if c := field(lhs); c != nil && !defaulting(c) {
					report(c)
				}
			}
		case *ast.IncDecStmt:
			if c := field(x.X); c != nil && !defaulting(c) {
				report(c)
			}
		case *ast.UnaryExpr:
			if c := field(x.X); c != nil && x.Op == token.AND {
				report(c)
			}
		case *ast.CompositeLit:
			st, ok := info.Types[x].Type.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for i, elt := range x.Elts {
				var obj types.Object
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok {
						obj = info.Uses[key]
					}
				} else if i < st.NumFields() {
					obj = st.Field(i)
				}
				if c := byObj[objPos(obj)]; c != nil && c.kind == "field" {
					report(c)
				}
			}
		}
		return true
	})
}

func objPos(obj types.Object) token.Pos {
	if obj == nil {
		return token.NoPos
	}
	return obj.Pos()
}

func readsObj(x ast.Node, info *types.Info, obj types.Object) bool {
	found := false
	ast.Inspect(x, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objPos(info.Uses[id]) == obj.Pos() {
			found = true
		}
		return !found
	})
	return found
}

// interfaces returns the non-generic interfaces with methods that the
// module spells out (named, or inline as in a type assertion), plus the
// stdlib ones (stdInterfaces).
func (a *deadweightAudit) interfaces() []*types.Interface {
	ifaces := a.stdInterfaces()
	for _, id := range sortedKeys(a.infos) {
		info := a.infos[id]
		for _, f := range a.filesOf(id) {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					if t, ok := info.Types[it].Type.(*types.Interface); ok && t.NumMethods() > 0 {
						ifaces = append(ifaces, t)
					}
				}
				return true
			})
		}
	}
	for _, id := range sortedKeys(a.checked) {
		ifaces = append(ifaces, scopeInterfaces(a.checked[id].Scope())...)
	}
	return ifaces
}

// stdInterfaces returns the non-generic interfaces with methods that a
// stdlib package the module imports exports, plus error and the errors
// package's Unwrap/Is/As protocol, which errors.Is and errors.As look up
// through interfaces export data does not show.
func (a *deadweightAudit) stdInterfaces() []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	errType := types.Universe.Lookup("error").Type()
	for _, m := range []struct {
		name string
		sig  *types.Signature
	}{
		{"Unwrap", types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false)},
		{"Is", types.NewSignatureType(nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Typ[types.Bool])), false)},
		{"As", types.NewSignatureType(nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Universe.Lookup("any").Type())), types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Typ[types.Bool])), false)},
	} {
		ifaces = append(ifaces, types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, m.name, m.sig)}, nil).Complete())
	}
	for _, path := range sortedKeys(a.stdUsed) {
		if pkg, err := a.std.Import(path); err == nil {
			ifaces = append(ifaces, scopeInterfaces(pkg.Scope())...)
		}
	}
	return ifaces
}

// scopeInterfaces lists the non-generic interface types with methods
// declared at package scope.
func scopeInterfaces(scope *types.Scope) []*types.Interface {
	var ifaces []*types.Interface
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
			continue
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	return ifaces
}

// implementsAny reports whether m's receiver type, or a pointer to it,
// implements an interface that has a method named like m.
func implementsAny(m *types.Func, ifaces []*types.Interface) bool {
	recv := m.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() != m.Name() {
				continue
			}
			if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				return true
			}
		}
	}
	return false
}
