package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// censusTypes names the configuration types of the option census, by
// package directory. A name ending in "*" covers every struct type of the
// package with that prefix and suffix ("*Options").
var censusTypes = map[string][]string{
	"internal/engine": {
		"Scenario", "ShardedScenario", "Grid", "Study", "LoadRamp",
		"Runtime", "DelaySpec", "FaultSpec", "AdversarySpec", "AdversaryRun", "WitnessSpec",
	},
	"internal/check":       {"Options"},
	"internal/sim":         {"Config"},
	"internal/live":        {"Config"},
	"internal/workload":    {"Spec", "RunOptions"},
	"internal/core":        {"Config"},
	"internal/experiments": {"*Options"},
}

// censusKeep lists the option fields the census accepts without a
// writer outside their own package, each with the reason it stays.
var censusKeep = map[string]string{
	"engine.Runtime.Mode":      "set through engine.LiveRuntime and LiveTCPRuntime, the constructors every live caller uses",
	"engine.Runtime.Transport": "set through engine.LiveTCPRuntime; the chan transport is the zero value",

	"engine.Scenario.Faults":  "the fault axis: Grid.Faults and AdversaryRun.Faults expand into it",
	"engine.Scenario.Witness": "what AdversarySpec.Scenarios attaches to each run of a family",
	"engine.Scenario.Horizon": "the benchmark module reads it (benchmark/traced.go), and it overrides a live run's drain",

	"engine.WitnessSpec.Bound":               "built by AdversarySpec.Scenarios from the family's declaration",
	"engine.WitnessSpec.Family":              "built by AdversarySpec.Scenarios from the family's declaration",
	"engine.WitnessSpec.FaultDichotomy":      "built by AdversarySpec.Scenarios from the family's declaration",
	"engine.WitnessSpec.Kinds":               "built by AdversarySpec.Scenarios from the family's declaration",
	"engine.WitnessSpec.Pair":                "built by AdversarySpec.Scenarios from the family's declaration",
	"engine.WitnessSpec.RequireLinearizable": "built by AdversarySpec.Scenarios from the family's declaration",

	"engine.ShardedScenario.Drain": "the migration drain policy is still open; the default is max(4d, 2× the mutator bound)",
	"engine.ShardedScenario.Name":  "mirrors Scenario.Name, which callers set; a sharded run is named the same way",

	"workload.Spec.PerProcess": "a workload-shape generator field with its own spec tests; a candidate for the next census pass",
	"workload.Spec.Ramp":       "a workload-shape generator field with its own spec tests; a candidate for the next census pass",
}

// TestOptionCensus holds every exported field of the configuration types
// to one rule: some non-test code outside the field's own package sets it
// (a keyed or positional composite literal, an assignment, an increment,
// or taking its address), or censusKeep names it with a reason. An option
// nothing sets is a constant with a field's cost: its doc, defaulting,
// validation and plumbing. The test also fails on a censusKeep entry
// that names no field or a field that has since gained a writer. Load
// walks the benchmark module's directory as part of the tree, so the
// fields the benchmark sets count as written.
func TestOptionCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	prog, err := Load(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	fields := censusFields(t, prog)
	written := censusWriters(prog, fields)

	var unwritten []string
	for v, name := range fields {
		if !written[v] {
			unwritten = append(unwritten, name)
		}
	}
	sort.Strings(unwritten)
	for _, name := range unwritten {
		if _, ok := censusKeep[name]; !ok {
			t.Errorf("option %s has no non-test writer outside its package: make it a constant, or keep it in censusKeep with a reason", name)
		}
	}
	known := map[string]bool{}
	for _, name := range fields {
		known[name] = true
	}
	for name := range censusKeep {
		switch {
		case !known[name]:
			t.Errorf("censusKeep names %s, which is no census field", name)
		case !slices.Contains(unwritten, name):
			t.Errorf("censusKeep names %s, which now has a writer: drop the entry", name)
		}
	}
	t.Logf("option census: %d exported fields over the configuration types, %d without an outside writer (%d kept)",
		len(fields), len(unwritten), len(censusKeep))
}

// censusFields maps every exported field of the census types to its
// "pkg.Type.Field" name.
func censusFields(t *testing.T, prog *Program) map[*types.Var]string {
	t.Helper()
	fields := map[*types.Var]string{}
	for rel, names := range censusTypes {
		pkg := prog.byPath[prog.Module+"/"+rel]
		if pkg == nil {
			t.Fatalf("census package %s not loaded", rel)
		}
		scope := pkg.Types.Scope()
		for _, pattern := range names {
			var matched []string
			if pre, suf, ok := strings.Cut(pattern, "*"); ok {
				for _, n := range scope.Names() {
					if strings.HasPrefix(n, pre) && strings.HasSuffix(n, suf) {
						matched = append(matched, n)
					}
				}
			} else {
				matched = []string{pattern}
			}
			if len(matched) == 0 {
				t.Fatalf("census pattern %s.%s matches no type", rel, pattern)
			}
			for _, n := range matched {
				tn, ok := scope.Lookup(n).(*types.TypeName)
				if !ok {
					t.Fatalf("census type %s.%s not found", rel, n)
				}
				st, ok := tn.Type().Underlying().(*types.Struct)
				if !ok {
					t.Fatalf("census type %s.%s is not a struct", rel, n)
				}
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						fields[f] = pkg.Types.Name() + "." + n + "." + f.Name()
					}
				}
			}
		}
	}
	return fields
}

// censusWriters reports which census fields some non-test code outside
// the field's own package writes.
func censusWriters(prog *Program, fields map[*types.Var]string) map[*types.Var]bool {
	written := map[*types.Var]bool{}
	for _, pkg := range prog.Packages {
		mark := func(v *types.Var) {
			if _, ok := fields[v]; ok && v.Pkg() != pkg.Types {
				written[v] = true
			}
		}
		// lhs marks every field selected along a written expression:
		// setting sc.Runtime.Overhead sets sc.Runtime too.
		var lhs func(e ast.Expr)
		lhs = func(e ast.Expr) {
			switch e := e.(type) {
			case *ast.SelectorExpr:
				if sel := pkg.Info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
					mark(sel.Obj().(*types.Var))
				}
				lhs(e.X)
			case *ast.IndexExpr:
				lhs(e.X)
			case *ast.StarExpr:
				lhs(e.X)
			case *ast.ParenExpr:
				lhs(e.X)
			}
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, e := range n.Lhs {
						lhs(e)
					}
				case *ast.IncDecStmt:
					lhs(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						lhs(n.X)
					}
				case *ast.CompositeLit:
					t := pkg.Info.TypeOf(n)
					if t == nil {
						return true
					}
					if p, ok := t.Underlying().(*types.Pointer); ok {
						t = p.Elem()
					}
					st, ok := t.Underlying().(*types.Struct)
					if !ok {
						return true
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								if v, ok := pkg.Info.Uses[id].(*types.Var); ok {
									mark(v)
								}
							}
						} else if i < st.NumFields() {
							mark(st.Field(i))
						}
					}
				}
				return true
			})
		}
	}
	return written
}
