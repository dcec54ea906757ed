package slaplace_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// implicitMethods are method names the standard library calls through
// its own interfaces (fmt, error, sort, container/heap, encoding/json,
// net/http, io), so no module code need name them.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "Len": true, "Less": true, "Swap": true,
	"Push": true, "Pop": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"ServeHTTP": true, "Read": true, "Write": true,
}

// testOnlyAllowed are exported internal functions, consts and vars that
// only tests name and that stay: each is a reference a test compares
// against or a harness a test drives with. Keys are
// "<dir>.<Recv>.<Name>" or "<dir>.<Name>".
var testOnlyAllowed = map[string]string{
	"internal/core.PlacementController.Pipeline": "the phase list the pipeline tests run one phase at a time",
	"internal/core.Plan.JobAssignments":          "the reference the api differential test holds FromCorePlan's job placements to",
	"internal/utility.Equalize":                  "the scratch-free equalizer the equalizer tests and benchmarks call",
	"internal/replica.Home":                      "the ring lookup the proxy end-to-end tests use to pick the daemon to kill",
	"internal/replica.Client.Plan":               "the failover client the replica fault tests drive",
	"internal/experiments.ChaosScenario":         "the per-family chaos scenario the experiments chaos tests run",
	"internal/rng.Stream.Shuffle":                "the seeded reordering the api differential tests check order-insensitivity with",
}

// TestInternalFuncsHaveShippedCallers fails when an exported function,
// method, or package-level const or var under internal/ is named by no
// non-test code in the module besides its own declaration: a name only
// tests use is code the binaries ship but never run. Matching is by
// name, so a dead declaration that shares its name with a live one goes
// unnoticed.
func TestInternalFuncsHaveShippedCallers(t *testing.T) {
	if len(testOnlyAllowed) > 12 {
		t.Fatalf("allowlist has %d entries, at most 12 allowed", len(testOnlyAllowed))
	}
	type decl struct{ key, name, pos string }
	var decls []decl
	used := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		names := map[*ast.Ident]bool{}
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		dir := filepath.ToSlash(filepath.Dir(path)) + "."
		declare := func(key string, id *ast.Ident) {
			names[id] = true
			if internal && id.IsExported() {
				decls = append(decls, decl{key + id.Name, id.Name, fset.Position(id.Pos()).String()})
			}
		}
		for _, dd := range f.Decls {
			switch dd := dd.(type) {
			case *ast.FuncDecl:
				if dd.Recv == nil {
					declare(dir, dd.Name)
				} else if implicitMethods[dd.Name.Name] {
					names[dd.Name] = true
				} else {
					declare(dir+recvName(dd.Recv.List[0].Type)+".", dd.Name)
				}
			case *ast.GenDecl:
				if dd.Tok != token.CONST && dd.Tok != token.VAR {
					continue
				}
				for _, spec := range dd.Specs {
					for _, id := range spec.(*ast.ValueSpec).Names {
						declare(dir, id)
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !names[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		if !used[d.name] && testOnlyAllowed[d.key] == "" {
			dead = append(dead, d.key+" ("+d.pos+")")
		}
	}
	sort.Strings(dead)
	for _, f := range dead {
		t.Errorf("no non-test caller: %s", f)
	}
	for k := range testOnlyAllowed {
		if !seen[k] {
			t.Errorf("allowlist names %s, which is not declared", k)
		}
	}
}

func recvName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return ""
}
