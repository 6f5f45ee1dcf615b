package hedc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchmarkCellRunsNoAdmission: the benchmark harness measures the
// gateway as deployed without -adaptive, with no admission control and
// no brownout ladder. Its non-test files may not name the gateway's two
// overload knobs, GatewayOptions.Admission and GatewayOptions.Brownout,
// so neither can be turned on in the measured cell unseen.
func TestBenchmarkCellRunsNoAdmission(t *testing.T) {
	const dir = "benchmark"
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	parsed := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		parsed++
		ast.Inspect(file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && (id.Name == "Admission" || id.Name == "Brownout") {
				t.Errorf("%s names %s", fset.Position(id.Pos()), id.Name)
			}
			return true
		})
	}
	if parsed == 0 {
		t.Fatalf("no non-test Go file in %s/", dir)
	}
}
