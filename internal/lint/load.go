package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Package is one type-checked, non-test package of a loaded module tree.
// Test files (_test.go) are deliberately excluded: the analyzers state
// invariants about shipped code, and tests are free to use wall clocks
// and global randomness.
type Package struct {
	// ImportPath is the module-qualified import path.
	ImportPath string
	// Rel is the package directory relative to the module root, in slash
	// form ("." for the root package).
	Rel string
	// Dir is the absolute package directory.
	Dir string
	// Files holds the parsed non-test files, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries the type-checker's expression, definition, and use maps
	// for the package's files.
	Info *types.Info
}

// Program is a loaded module tree: every non-test package under the module
// root, parsed and type-checked against a shared FileSet.
type Program struct {
	// Fset positions every file of every package.
	Fset *token.FileSet
	// Root is the absolute module root directory.
	Root string
	// Module is the module path from go.mod.
	Module string
	// Packages lists every package under Root, sorted by import path.
	Packages []*Package

	byPath map[string]*Package
}

var moduleRe = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// Load parses and type-checks every non-test package under root, which
// must be a module root (contain go.mod). Module-internal imports are
// resolved from source within root; everything else (the standard
// library) goes through go/importer's source importer, so loading needs
// no compiled artifacts and no dependencies outside the standard library.
func Load(root string) (*Program, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: root %s is not a module root: %w", root, err)
	}
	m := moduleRe.FindSubmatch(gomod)
	if m == nil {
		return nil, fmt.Errorf("lint: no module line in %s/go.mod", root)
	}
	prog := &Program{
		Fset:   token.NewFileSet(),
		Root:   root,
		Module: string(m[1]),
		byPath: map[string]*Package{},
	}
	std := importer.ForCompiler(prog.Fset, "source", nil)
	loading := map[string]bool{}
	var load func(importPath string) (*Package, error)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if path == prog.Module || strings.HasPrefix(path, prog.Module+"/") {
			pkg, err := load(path)
			if err != nil {
				return nil, err
			}
			return pkg.Types, nil
		}
		return std.Import(path)
	})
	load = func(importPath string) (*Package, error) {
		if pkg, ok := prog.byPath[importPath]; ok {
			return pkg, nil
		}
		if loading[importPath] {
			return nil, fmt.Errorf("lint: import cycle through %s", importPath)
		}
		loading[importPath] = true
		defer delete(loading, importPath)

		rel := "."
		if importPath != prog.Module {
			rel = strings.TrimPrefix(importPath, prog.Module+"/")
		}
		dir := filepath.Join(root, filepath.FromSlash(rel))
		names, err := goFileNames(dir)
		if err != nil {
			return nil, err
		}
		if len(names) == 0 {
			return nil, fmt.Errorf("lint: no Go files in %s", dir)
		}
		files := make([]*ast.File, 0, len(names))
		for _, name := range names {
			f, err := parser.ParseFile(prog.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(importPath, prog.Fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: typecheck %s: %w", importPath, err)
		}
		pkg := &Package{
			ImportPath: importPath,
			Rel:        rel,
			Dir:        dir,
			Files:      files,
			Types:      tpkg,
			Info:       info,
		}
		prog.byPath[importPath] = pkg
		prog.Packages = append(prog.Packages, pkg)
		return pkg, nil
	}

	// Walk the tree for package directories; imports fill in dependencies
	// first, so Packages accumulates in dependency-then-walk order and is
	// sorted once at the end.
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
			return fs.SkipDir
		}
		names, err := goFileNames(path)
		if err != nil {
			return err
		}
		if len(names) == 0 {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		importPath := prog.Module
		if rel != "." {
			importPath = prog.Module + "/" + filepath.ToSlash(rel)
		}
		_, err = load(importPath)
		return err
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(prog.Packages, func(i, j int) bool {
		return prog.Packages[i].ImportPath < prog.Packages[j].ImportPath
	})
	return prog, nil
}

// goFileNames lists the non-test .go files of dir, sorted.
func goFileNames(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	return names, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// relFile returns path relative to the program root in slash form, for
// stable cross-machine diagnostic output.
func (p *Program) relFile(path string) string {
	if rel, err := filepath.Rel(p.Root, path); err == nil {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(path)
}
