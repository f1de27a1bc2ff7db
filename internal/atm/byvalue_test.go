package atm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// cellByValue names every declaration in the package's non-test files
// that may mention a function taking or returning a Cell by value, and
// why. Everything else moves a cell as *Cell: a 53-byte array handed over
// by value is a copy at the call, usually another at the callee, and the
// cell path was eleven of them a hop before it stopped.
var cellByValue = map[string]string{
	// What crosses a cut fiber crosses by value: the staged cell outlives
	// the sender's record, on another loop's goroutine.
	"CellDest":           "the far end of a cut fiber takes the staged copy",
	"Adapter.InjectCell": "implements CellDest",
	"Port.InjectCell":    "implements CellDest",
	"ShardPlan":          "StageCell hands the coordinator its copy",
	"cutEnd":             "SetCut's stage function is StageCell, bound to one fiber",
	"Adapter.SetCut":     "takes that stage function",
	"Port.SetCut":        "takes that stage function",
	"transmitter":        "keeps that stage function (cut)",
	"cutFiber":           "builds that stage function",
	// Callers outside the cell path.
	"Adapter.PopRx": "PopRxInto by value, for the benchmark kernels and tests",
}

// TestNoCellByValue parses the package's non-test files and fails on any
// function type — a declaration, a literal, an interface method, a field —
// with a parameter or result of type Cell outside the allow-list above.
func TestNoCellByValue(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			// One site per top-level declaration: a method is Recv.Name, a
			// type carries its fields' and methods' function types.
			sites := map[ast.Node]string{}
			switch d := decl.(type) {
			case *ast.FuncDecl:
				site := d.Name.Name
				if d.Recv != nil {
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					site = recv.(*ast.Ident).Name + "." + site
				}
				sites[d] = site
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						sites[ts] = ts.Name.Name
					} else {
						sites[spec] = "a var or const declaration"
					}
				}
			}
			for root, site := range sites {
				ast.Inspect(root, func(n ast.Node) bool {
					ft, ok := n.(*ast.FuncType)
					if !ok || !passesCellByValue(ft) {
						return true
					}
					seen[site] = true
					if _, ok := cellByValue[site]; !ok {
						t.Errorf("%s: %s has a function with a Cell parameter or result; cells move as *Cell (or add it to cellByValue with its reason)",
							fset.Position(ft.Pos()), site)
					}
					return true
				})
			}
		}
	}
	for site := range cellByValue {
		if !seen[site] {
			t.Errorf("%s no longer passes a Cell by value: the allow-list is stale", site)
		}
	}
}

// passesCellByValue reports whether the function type has a parameter or
// result whose type is exactly Cell.
func passesCellByValue(ft *ast.FuncType) bool {
	for _, fl := range []*ast.FieldList{ft.Params, ft.Results} {
		if fl == nil {
			continue
		}
		for _, f := range fl.List {
			if id, ok := f.Type.(*ast.Ident); ok && id.Name == "Cell" {
				return true
			}
		}
	}
	return false
}
