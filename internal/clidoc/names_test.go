package clidoc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestDocsNameOnlyWhatExists holds README.md, DESIGN.md and EXPERIMENTS.md
// to the repository's Go sources (every .go file outside dot directories,
// benchmark/, tests and testdata included), so a doc cannot go on naming
// what the code no longer has. In each backticked span outside fenced
// code blocks:
//
//   - a Go name must be declared: a bare name (read as one when it mixes
//     upper and lower case, as `runNodes` or `Pipelined` do; `filter`,
//     `NULL` and `MANIFEST` are words), a package-qualified one
//     (`engine.WithPartitions`, `workflow.CheckIntegrity` for a method of
//     the package, `core.Options.Workers`: the member must be the type's)
//     or a receiver-qualified one (`Graph.TopoOrder`,
//     `(*obs.Journal).Registry()`). A trailing call or type argument list
//     is dropped;
//   - a .go file must exist (a bare one anywhere, `dir/f.go` under some
//     directory of that name), and so must an internal/, cmd/ or pkg/
//     path, wherever in the span it stands;
//   - a metric series must appear in a Go string literal: a snake_case
//     name (`engine_rows_out_total{node}`: the label block is dropped,
//     `shared_cache_{hits,misses}_total` is two names, `expand_cost_memo_*`
//     a prefix) or a benchmark figure (`pass.scan_s`, `engine.op_ns_per_row`,
//     the family of `engine.op_ns_per_row.filter`).
//
// Skipped: a name qualified by a standard-library package the repository
// imports (`time.Now`), a chain that starts with an undeclared lower-case
// name (the local variable of an example: `x.Sem.Op`), and anything holding
// a glob or a brace alternative that is not a metric's (`TestSwap*` is
// TestDocsCiteOnlyTestsThatExist's).
//
// Its second case holds every "DESIGN §N" and "DESIGN.md §N" of README.md,
// EXPERIMENTS.md, the verify skill and the Go sources' comments to a
// "## N." heading of DESIGN.md, and a quoted title after it ("DESIGN §3,
// "Operator classes"") to a heading inside that section.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	const root = "../.."
	src := loadSources(t, root)
	t.Run("names", func(t *testing.T) {
		for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
			path := filepath.Join(root, doc)
			for _, span := range codeSpans(read(t, path)) {
				for _, problem := range src.check(span.text) {
					t.Errorf("%s:%d names %s", doc, span.line, problem)
				}
			}
		}
	})
	t.Run("sections", func(t *testing.T) {
		sections := designSections(read(t, filepath.Join(root, "DESIGN.md")))
		docs := []string{"README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}
		for path := range src.files {
			if strings.HasSuffix(path, ".go") {
				docs = append(docs, path)
			}
		}
		for _, doc := range docs {
			for _, ref := range designRefs(read(t, filepath.Join(root, doc))) {
				titles, ok := sections[ref.section]
				switch {
				case !ok:
					t.Errorf("%s:%d cites DESIGN §%s, which DESIGN.md has no heading for", doc, ref.line, ref.section)
				case ref.title != "" && !titles[ref.title]:
					t.Errorf("%s:%d cites DESIGN §%s %q, which is no heading of that section", doc, ref.line, ref.section, ref.title)
				}
			}
		}
	})
}

// sources is what the repository's Go files declare, import and spell.
type sources struct {
	files    map[string]bool                       // slash paths from the root
	pkgs     map[string]map[string]bool            // package name → its top-level names
	members  map[string]map[string]map[string]bool // package → type → field and method names
	embeds   map[string][]string                   // type → the types it embeds
	declared map[string]bool                       // every declared name, locals and members too
	std      map[string]bool                       // names of imported standard-library packages
	literals map[string]bool                       // [a-z0-9_.] runs of the string literals
}

var literalToken = regexp.MustCompile(`[a-z0-9_.]+`)

func loadSources(t *testing.T, root string) *sources {
	t.Helper()
	s := &sources{
		files:    map[string]bool{},
		pkgs:     map[string]map[string]bool{},
		members:  map[string]map[string]map[string]bool{},
		embeds:   map[string][]string{},
		declared: map[string]bool{},
		std:      map[string]bool{},
		literals: map[string]bool{},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			s.files[rel] = true
			return nil
		}
		s.files[rel] = true
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			if strings.Contains(rel, "testdata/") {
				return nil // a fixture may be broken on purpose
			}
			return err
		}
		s.add(f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// add records what file f declares, imports and spells.
func (s *sources) add(f *ast.File) {
	pkg := strings.TrimSuffix(f.Name.Name, "_test")
	if s.pkgs[pkg] == nil {
		s.pkgs[pkg] = map[string]bool{}
		s.members[pkg] = map[string]map[string]bool{}
	}
	member := func(typ, name string) {
		if s.members[pkg][typ] == nil {
			s.members[pkg][typ] = map[string]bool{}
		}
		s.members[pkg][typ][name] = true
		s.declared[name] = true
	}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if first, _, _ := strings.Cut(path, "/"); !strings.Contains(first, ".") && first != "etlopt" {
			name := filepath.Base(path)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			s.std[name] = true
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				s.pkgs[pkg][d.Name.Name] = true
			} else {
				member(typeName(d.Recv.List[0].Type), d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					s.pkgs[pkg][sp.Name.Name] = true
					var fields *ast.FieldList
					switch typ := sp.Type.(type) {
					case *ast.StructType:
						fields = typ.Fields
					case *ast.InterfaceType:
						fields = typ.Methods
					}
					for _, field := range fieldList(fields) {
						if len(field.Names) == 0 {
							embedded := typeName(field.Type)
							member(sp.Name.Name, embedded)
							s.embeds[sp.Name.Name] = append(s.embeds[sp.Name.Name], embedded)
						}
						for _, n := range field.Names {
							member(sp.Name.Name, n.Name)
						}
					}
				case *ast.ValueSpec:
					for _, n := range sp.Names {
						s.pkgs[pkg][n.Name] = true
					}
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			s.declared[n.Name.Name] = true
		case *ast.TypeSpec:
			s.declared[n.Name.Name] = true
		case *ast.ValueSpec:
			for _, id := range n.Names {
				s.declared[id.Name] = true
			}
		case *ast.Field:
			for _, id := range n.Names {
				s.declared[id.Name] = true
			}
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				for _, e := range n.Lhs {
					if id, ok := e.(*ast.Ident); ok {
						s.declared[id.Name] = true
					}
				}
			}
		case *ast.RangeStmt:
			if n.Tok == token.DEFINE {
				for _, e := range []ast.Expr{n.Key, n.Value} {
					if id, ok := e.(*ast.Ident); ok {
						s.declared[id.Name] = true
					}
				}
			}
		case *ast.BasicLit:
			if n.Kind == token.STRING {
				text, _ := strconv.Unquote(n.Value)
				for _, tok := range literalToken.FindAllString(text, -1) {
					s.literals[strings.Trim(tok, ".")] = true
				}
			}
		}
		return true
	})
}

func fieldList(fl *ast.FieldList) []*ast.Field {
	if fl == nil {
		return nil
	}
	return fl.List
}

// typeName is the name of a receiver or embedded type: T of *T, T[P],
// pkg.T.
func typeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return typeName(x.X)
	case *ast.IndexExpr:
		return typeName(x.X)
	case *ast.IndexListExpr:
		return typeName(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.Ident:
		return x.Name
	}
	return ""
}

var (
	goName    = regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*)*$`)
	mixedCase = regexp.MustCompile(`[a-z].*[A-Z]|[A-Z].*[a-z]`)
	series    = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)+_?$`)
	figure    = regexp.MustCompile(`^[a-z]+(\.[a-z0-9_]+)+$`)
	goFile    = regexp.MustCompile(`[\w./-]*\w\.go\b`)
	fileName  = regexp.MustCompile(`\.(go|etl|json|jsonl|md|txt|golden|rows|csv|yml)$`)
	repoPath  = regexp.MustCompile(`(?:^|[\s(=,'"])\.?/?((?:internal|cmd|pkg)/[\w./-]*)`)
)

// check returns what span names that the sources do not have.
func (s *sources) check(span string) []string {
	var problems []string
	for _, m := range goFile.FindAllString(span, -1) {
		if !s.hasFile(m) {
			problems = append(problems, "file "+m+", which does not exist")
		}
	}
	for _, m := range repoPath.FindAllStringSubmatch(span, -1) {
		if p := trimPath(m[1]); p != "" && !s.files[p] {
			problems = append(problems, "path "+m[1]+", which does not exist")
		}
	}
	text := strings.TrimSpace(span)
	if names, ok := metricNames(text); ok {
		for _, name := range names {
			if !s.spelled(name) {
				problems = append(problems, "series "+name+", which no Go string literal spells")
			}
		}
		return problems
	}
	if chain, ok := goChain(text); ok {
		if problem := s.resolve(chain); problem != "" {
			problems = append(problems, problem)
		}
	}
	return problems
}

// hasFile reports whether a .go file named name exists: a bare name
// anywhere, dir/f.go in a directory of that name.
func (s *sources) hasFile(name string) bool {
	name = strings.TrimPrefix(name, "./")
	if s.files[name] {
		return true
	}
	for f := range s.files {
		if strings.HasSuffix(f, "/"+name) {
			return true
		}
	}
	return false
}

// trimPath cuts a path found in a span to what must exist: no /..., no
// trailing slash, no .Test… or :line after a package or file; "" for a
// glob or a placeholder.
func trimPath(p string) string {
	if strings.ContainsAny(p, "*{<") {
		return ""
	}
	p = strings.TrimSuffix(p, "...")
	p = strings.TrimRight(p, "/.")
	if dir, base := filepath.Split(p); strings.Contains(base, ".") {
		stem, ext, _ := strings.Cut(base, ".")
		if ext != "" && (ext[0] < 'a' || ext[0] > 'z') {
			p = dir + stem
		}
	}
	return p
}

// metricNames returns the series or figure names text is, if it is one.
func metricNames(text string) ([]string, bool) {
	if i := strings.LastIndexByte(text, '{'); i > 0 && strings.HasSuffix(text, "}") && text[i-1] != '_' {
		text = text[:i] // a label block
	}
	if !strings.Contains(text, "_") {
		return nil, false
	}
	var out []string
	for _, name := range expand(text) {
		base := strings.TrimSuffix(name, "*")
		if !series.MatchString(base) && !figure.MatchString(base) {
			return nil, false
		}
		out = append(out, name)
	}
	return out, true
}

// spelled reports whether a string literal spells name, or a figure of
// the family it names; a trailing * names a prefix.
func (s *sources) spelled(name string) bool {
	prefix, wild := strings.CutSuffix(name, "*")
	if !wild && s.literals[name] {
		return true
	}
	for lit := range s.literals {
		if wild && strings.HasPrefix(lit, prefix) || strings.HasPrefix(lit, name+".") {
			return true
		}
	}
	return false
}

// goChain returns the dotted parts of text if it reads as a Go name.
func goChain(text string) ([]string, bool) {
	text = strings.TrimPrefix(text, "*")
	if strings.HasPrefix(text, "(") { // (*pkg.T).M
		end := strings.IndexByte(text, ')')
		if end < 0 {
			return nil, false
		}
		text = strings.TrimPrefix(text[1:end], "*") + text[end+1:]
	}
	if i := strings.IndexAny(text, "(["); i > 0 {
		text = text[:i]
	}
	if !goName.MatchString(text) || fileName.MatchString(text) {
		return nil, false
	}
	chain := strings.Split(text, ".")
	if len(chain) == 1 && !mixedCase.MatchString(text) {
		return nil, false
	}
	return chain, true
}

// resolve returns why chain names nothing the sources declare, or "".
func (s *sources) resolve(chain []string) string {
	name := strings.Join(chain, ".")
	first := chain[0]
	switch {
	case s.pkgs[first] != nil && len(chain) > 1:
		if !s.pkgs[first][chain[1]] && !s.hasMember(first, "", chain[1]) {
			return name + ", which package " + first + " does not declare"
		}
		if len(chain) > 2 && !s.hasMember(first, chain[1], chain[2]) {
			return name + ", which " + first + "." + chain[1] + " does not have"
		}
	case s.std[first] && len(chain) > 1:
	case s.isType(first) && len(chain) > 1:
		if !s.hasMember("", first, chain[1]) {
			return name + ", which no type " + first + " has"
		}
	case !s.declared[first]:
		if first[0] >= 'A' && first[0] <= 'Z' || len(chain) == 1 {
			return name + ", which no Go source declares"
		}
	default:
		for _, part := range chain[1:] {
			if !s.declared[part] {
				return name + ", which no Go source declares"
			}
		}
	}
	return ""
}

// isType reports whether some package declares a type named typ.
func (s *sources) isType(typ string) bool {
	for _, types := range s.members {
		if types[typ] != nil {
			return true
		}
	}
	return false
}

// hasMember reports whether type typ ("": any) of package pkg ("": any)
// has a field or method m, its own or promoted from a type it embeds.
func (s *sources) hasMember(pkg, typ, m string) bool {
	seen := map[string]bool{}
	var has func(typ string) bool
	has = func(typ string) bool {
		if seen[typ] {
			return false
		}
		seen[typ] = true
		for p, types := range s.members {
			if pkg != "" && p != pkg {
				continue
			}
			for name, members := range types {
				if (typ == "" || name == typ) && members[m] {
					return true
				}
			}
		}
		for _, e := range s.embeds[typ] {
			if has(e) {
				return true
			}
		}
		return false
	}
	return has(typ)
}

// span is one backticked code span of a doc.
type span struct {
	line int
	text string
}

// codeSpans returns doc's backticked spans outside fenced code blocks.
func codeSpans(doc string) []span {
	lines := strings.Split(doc, "\n")
	for i, fenced := 0, false; i < len(lines); i++ {
		if strings.HasPrefix(strings.TrimSpace(lines[i]), "```") {
			fenced = !fenced
			lines[i] = ""
		} else if fenced {
			lines[i] = ""
		}
	}
	doc = strings.Join(lines, "\n")
	var out []span
	for _, m := range codeSpan.FindAllStringIndex(doc, -1) {
		out = append(out, span{strings.Count(doc[:m[0]], "\n") + 1, doc[m[0]+1 : m[1]-1]})
	}
	return out
}

// sectionRef is one "DESIGN §N" of a doc, with the title it quotes.
type sectionRef struct {
	line           int
	section, title string
}

var designRefPattern = regexp.MustCompile(`DESIGN(?:\.md)?[\s/]+§(\d+)(?:'s)?(?:,?[\s/]+"([^"]+)")?`)

func designRefs(doc string) []sectionRef {
	var out []sectionRef
	for _, m := range designRefPattern.FindAllStringSubmatchIndex(doc, -1) {
		ref := sectionRef{line: strings.Count(doc[:m[0]], "\n") + 1, section: doc[m[2]:m[3]]}
		if m[4] >= 0 {
			ref.title = strings.Join(strings.Fields(doc[m[4]:m[5]]), " ")
		}
		out = append(out, ref)
	}
	return out
}

var (
	sectionHeading = regexp.MustCompile(`^## (\d+)\. `)
	subHeading     = regexp.MustCompile(`^###+ (.+)$`)
)

// designSections maps each "## N." section of DESIGN.md to the titles of
// the headings inside it.
func designSections(design string) map[string]map[string]bool {
	out := map[string]map[string]bool{}
	var current map[string]bool
	for _, line := range strings.Split(design, "\n") {
		if m := sectionHeading.FindStringSubmatch(line); m != nil {
			current = map[string]bool{line[len(m[0]):]: true}
			out[m[1]] = current
		} else if strings.HasPrefix(line, "## ") {
			current = nil
		} else if m := subHeading.FindStringSubmatch(line); m != nil && current != nil {
			current[strings.TrimSpace(m[1])] = true
		}
	}
	return out
}
