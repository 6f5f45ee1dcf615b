package main

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkJSON is the contract file at the root of the repository.
type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// The names, units, directions and bounds the program prints are the ones
// BENCHMARK.json promises.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q (or their reasons differ)", i, doc.Workloads[i].Name, w.Name)
		}
	}
	for _, set := range []struct {
		what      string
		doc, prog []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(set.doc) != len(set.prog) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", set.what, len(set.doc), len(set.prog))
		}
		for i := range set.prog {
			if set.doc[i] != set.prog[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", set.what, i, set.doc[i], set.prog[i])
			}
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// A miniature of all four workloads: every end-to-end metric is printed,
// none is zero, nothing fails, every correctness gate passes.
func TestMiniatureOfEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			cfg := runConfig{workload: w.Name, seed: 3, seconds: 1, outDir: t.TempDir(), conns: 2, users: 4, mini: true}
			out, err := w.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range out.errs {
				t.Errorf("failed operation: %s", e)
			}
			line, _ := linesFor(out, false)
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d", line.Correct, line.Attempted, line.Failed)
			}
			if len(line.Metrics) != len(endToEnd) {
				t.Fatalf("%d metrics on the line, want %d", len(line.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				m, ok := line.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %+v (present %v), want a positive value in %s", d.Name, m, ok, d.Unit)
				}
			}
			traced, _ := linesFor(out, true)
			if len(traced.Metrics) != len(perLayer) {
				t.Errorf("%d metrics on the traced line, want %d", len(traced.Metrics), len(perLayer))
			}
		})
	}
}

// The decorators of the traced run preserve behaviour: a fixed script
// costs the shard servers the same operations with and without them; and
// the layers' self times add up to the traced operations' time.
func TestDecoratorsPreserveBehaviourAndLayersAddUp(t *testing.T) {
	size := cellSize{hles: 400, days: 10, stdCat: 8, extCat: 20, anaEvery: 4, anaMax: 3}
	rec := newRecorder()
	var ops [2]int64
	for i, r := range []*recorder{nil, rec} {
		c, err := startCell(filepath.Join(t.TempDir(), "cell"), 5, size, r)
		if err != nil {
			t.Fatal(err)
		}
		clients, err := newClients(c, 1, true)
		if err != nil {
			c.close()
			t.Fatal(err)
		}
		script := genScript(rand.New(rand.NewSource(11)), 160, c.data, 0.05)
		if r != nil {
			r.on.Store(true)
		}
		before := c.dbOps()
		for j, op := range script {
			var t0 int64
			if r != nil {
				r.op.Store(int64(j + 1))
				t0 = r.start()
			}
			if err := clients[0].do(op); err != nil {
				t.Errorf("cell %d, operation %d (%s): %v", i, j, opName(op.kind), err)
			}
			if r != nil {
				r.finish("http.op", opName(op.kind), -1, t0)
			}
		}
		ops[i] = c.dbOps() - before
		if r != nil {
			r.op.Store(0)
			r.on.Store(false)
		}
		if checked, bad := verifyWrites(clients); bad > 0 {
			t.Errorf("cell %d: %d of %d end-of-run write checks failed", i, bad, checked)
		}
		c.close()
	}
	if ops[0] != ops[1] || ops[0] == 0 {
		t.Errorf("the plain cell served %d database operations, the traced one %d", ops[0], ops[1])
	}

	budgets, orphans := rec.analyze()
	b := budgets["http.op"]
	if b == nil || b.ops != 160 {
		t.Fatalf("traced operations: %+v", b)
	}
	if orphans > len(rec.spans)/100 {
		t.Errorf("%d of %d spans fell outside every operation", orphans, len(rec.spans))
	}
	if r := float64(b.sumSelf()) / float64(b.rootNS); math.Abs(r-1) > 0.05 {
		t.Errorf("layer self times add up to %.3f of the traced time", r)
	}
	for i, op := range b.perOp {
		var sum int64
		for _, ns := range op.selfNS {
			sum += ns
		}
		if math.Abs(float64(sum)/float64(op.rootNS)-1) > 0.05 {
			t.Errorf("operation %d: layers add up to %d ns of %d", i, sum, op.rootNS)
		}
	}
	for _, layer := range layerNames {
		if b.count[layer] == 0 {
			t.Errorf("no %s span was recorded", layer)
		}
	}
}

// The harness measures the production wiring: it imports neither the
// simulator nor the paper-shape bench package, and sets no capacity model.
func TestHarnessUsesNoModel(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			for _, imp := range file.Imports {
				if p := strings.Trim(imp.Path.Value, `"`); p == "repro/internal/sim" || p == "repro/internal/bench" {
					t.Errorf("%s imports %s", name, p)
				}
			}
			ast.Inspect(file, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && (id.Name == "MaxOpsPerSec" || id.Name == "Capacity" ||
					id.Name == "MaxQueueDelay" || id.Name == "MaxInflight") {
					t.Errorf("%s sets %s", fset.Position(id.Pos()), id.Name)
				}
				return true
			})
		}
	}
}
