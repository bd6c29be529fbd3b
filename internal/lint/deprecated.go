package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// Deprecated keeps retired API retired while it is being phased out:
// non-test code may not reference a symbol — top-level or struct field —
// whose doc comment carries a standard deprecation paragraph from outside
// the package that declares it. The declaring package itself is exempt
// (a shim may bridge onto its replacement), and test files are never
// loaded, so a shim's regression tests keep working until it is deleted.
// Everything else (cmd tools, examples, new subsystems) must use the
// replacement named in the deprecation note.
var Deprecated = &Analyzer{
	Name: "deprecated",
	Doc:  "forbid references to Deprecated-marked module symbols (including struct fields) from outside their declaring package",
	Run:  runDeprecated,
}

// deprecatedRe matches a standard deprecation paragraph: the word
// Deprecated, a colon, then the note. The colon is written as a class so
// that this pattern is not itself a deprecation notice to a plain grep.
var deprecatedRe = regexp.MustCompile(`(?ms)^Deprecated[:] (.*?)(?:\n\n|\z)`)

// deprecationNote returns the first sentence of the doc group's
// deprecation paragraph, if any.
func deprecationNote(doc *ast.CommentGroup) (string, bool) {
	if doc == nil {
		return "", false
	}
	m := deprecatedRe.FindStringSubmatch(doc.Text())
	if m == nil {
		return "", false
	}
	note := strings.Join(strings.Fields(m[1]), " ")
	if i := strings.Index(note, ". "); i >= 0 {
		note = note[:i]
	}
	return strings.TrimSuffix(note, "."), true
}

// deprecatedObjects lazily indexes every Deprecated-marked top-level
// object of the program, mapping it to its deprecation note.
func (p *Program) deprecatedObjects() map[types.Object]string {
	if p.deprecated != nil {
		return p.deprecated
	}
	p.deprecated = map[types.Object]string{}
	record := func(pkg *Package, id *ast.Ident, note string) {
		if obj := pkg.Info.Defs[id]; obj != nil {
			p.deprecated[obj] = note
		}
	}
	for _, pkg := range p.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if note, ok := deprecationNote(d.Doc); ok {
						record(pkg, d.Name, note)
					}
				case *ast.GenDecl:
					declNote, declOK := deprecationNote(d.Doc)
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							if note, ok := deprecationNote(s.Doc); ok {
								record(pkg, s.Name, note)
							} else if declOK {
								record(pkg, s.Name, declNote)
							}
							// Struct fields carry their own deprecation
							// paragraphs (option-surface shims such as
							// retired config knobs); index them so selector
							// and composite-literal references are policed
							// like top-level symbols.
							if st, ok := s.Type.(*ast.StructType); ok {
								for _, field := range st.Fields.List {
									note, ok := deprecationNote(field.Doc)
									if !ok {
										note, ok = deprecationNote(field.Comment)
									}
									if !ok {
										continue
									}
									for _, name := range field.Names {
										record(pkg, name, note)
									}
								}
							}
						case *ast.ValueSpec:
							note, ok := deprecationNote(s.Doc)
							if !ok {
								note, ok = declNote, declOK
							}
							if ok {
								for _, name := range s.Names {
									record(pkg, name, note)
								}
							}
						}
					}
				}
			}
		}
	}
	return p.deprecated
}

func runDeprecated(pass *Pass) {
	dep := pass.Prog.deprecatedObjects()
	if len(dep) == 0 {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.Pkg.Info.Uses[id]
			if obj == nil || obj.Pkg() == pass.Pkg.Types {
				return true
			}
			if note, ok := dep[obj]; ok {
				what := ""
				if v, isVar := obj.(*types.Var); isVar && v.IsField() {
					what = "field "
				}
				pass.Reportf(id.Pos(), "reference to deprecated %s%s.%s (deprecated: %s)", what, obj.Pkg().Name(), obj.Name(), note)
			}
			return true
		})
	}
}
