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
// gateway's request path with admission off: no limiter and no degrade
// switch. Its non-test files may not name the gateway's two overload
// knobs, GatewayOptions.Admission and GatewayOptions.Degrade, so neither
// can be turned on in the measured cell unseen. hedc-server deploys both;
// ROADMAP 1(d)'s overload_cell workload is where that default will be
// measured end to end.
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
			if id, ok := n.(*ast.Ident); ok && (id.Name == "Admission" || id.Name == "Degrade") {
				t.Errorf("%s names %s", fset.Position(id.Pos()), id.Name)
			}
			return true
		})
	}
	if parsed == 0 {
		t.Fatalf("no non-test Go file in %s/", dir)
	}
}
