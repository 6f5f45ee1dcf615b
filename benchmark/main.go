// Command benchmark is the repository's measurement spine: unthrottled
// end-to-end and per-layer numbers for the two deployments this code has,
// the replicated, sharded cell and the single node. See README.md.
//
//	go run ./benchmark                       every workload, result file
//	go run ./benchmark -trace                the same plus the traced runs
//	go run ./benchmark -workload churn_cell  one workload in this process
//	go run ./benchmark -compare a.json b.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// measurement is one metric value on the contract line.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runLine is the last line a workload run prints: exactly these keys.
type runLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]measurement `json:"metrics"`
}

// detailLine precedes it: sample counts, and what was measured beside the
// contract's metric set.
type detailLine struct {
	Samples map[string]int64       `json:"samples"`
	Extra   map[string]measurement `json:"extra"`
}

const detailPrefix = "detail "

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one workload in this process (default: all, each in a child process)")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 25, "seconds one run measures")
	trace := fs.Int("trace", 0, "1 = traced run (decorators, per-layer metrics); 0 = end-to-end run")
	outDir := fs.String("out", filepath.Join("benchmark", "out"), "directory for result, trace and scratch files")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	if err := fs.Parse(normalizeTraceFlag(args)); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), os.Stdout)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 1")
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	cfg := runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0,
		outDir: *outDir, conns: runtime.NumCPU(), users: 4 * runtime.NumCPU(),
	}
	if *workload == "" {
		return runAll(cfg)
	}
	return runOne(cfg)
}

// normalizeTraceFlag lets -trace stand alone (= 1) and take a value as a
// separate word ("--trace 0"), which a Go bool flag cannot do.
func normalizeTraceFlag(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		if args[i] == "-trace" || args[i] == "--trace" {
			v := "1"
			if i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
				v = args[i+1]
				i++
			}
			out = append(out, "-trace="+v)
			continue
		}
		out = append(out, args[i])
	}
	return out
}

// runOne runs one workload in this process and prints its metrics, the
// detail line and the contract line.
func runOne(cfg runConfig) int {
	w := workloadByName(cfg.workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", cfg.workload)
		return 2
	}
	out, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", cfg.workload, err)
		return 1
	}
	for _, e := range out.errs {
		fmt.Fprintf(os.Stderr, "benchmark: %s: FAILED: %s\n", cfg.workload, e)
	}
	line, detail := linesFor(out, cfg.trace)
	printTable(os.Stdout, cfg, line, detail)
	db, _ := json.Marshal(detail)
	fmt.Printf("%s%s\n", detailPrefix, db)
	lb, _ := json.Marshal(line)
	fmt.Printf("%s\n", lb)
	if !line.Correct {
		return 3
	}
	return 0
}

// linesFor splits an outcome into the contract's metric set (every
// end-to-end metric untraced, every per-layer metric traced) and the rest.
func linesFor(out *outcome, traced bool) (runLine, detailLine) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	line := runLine{
		Correct: out.failed == 0, Attempted: max(out.attempted, 1), Failed: out.failed,
		Metrics: map[string]measurement{},
	}
	detail := detailLine{Samples: map[string]int64{}, Extra: map[string]measurement{}}
	inSet := map[string]bool{}
	for _, d := range defs {
		inSet[d.Name] = true
		line.Metrics[d.Name] = measurement{Value: out.values[d.Name], Unit: d.Unit}
		detail.Samples[d.Name] = out.samples[d.Name]
	}
	for name, v := range out.values {
		if !inSet[name] {
			detail.Extra[name] = measurement{Value: v, Unit: unitOf(name)}
			detail.Samples[name] = out.samples[name]
		}
	}
	return line, detail
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	switch {
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_ratio"):
		return "ratio"
	}
	return "count"
}

func printTable(w *os.File, cfg runConfig, line runLine, detail detailLine) {
	mode := "end-to-end"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "# %s  %s  seed=%d  seconds=%g  conns=%d  attempted=%d failed=%d\n",
		cfg.workload, mode, cfg.seed, cfg.seconds, cfg.conns, line.Attempted, line.Failed)
	for _, group := range []map[string]measurement{line.Metrics, detail.Extra} {
		names := make([]string, 0, len(group))
		for n := range group {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "%-34s %16.4f %-6s n=%d\n", n, group[n].Value, group[n].Unit, detail.Samples[n])
		}
	}
}

// ---- all workloads, each in a child process ------------------------------

type resultMetric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int64   `json:"samples"`
}

type workloadResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	FailRatio float64                 `json:"fail_ratio"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

// resultFile is the envelope one `go run ./benchmark` writes.
type resultFile struct {
	Commit     string                     `json:"commit"`
	GoVersion  string                     `json:"go_version"`
	GOOS       string                     `json:"goos"`
	GOARCH     string                     `json:"goarch"`
	NProc      int                        `json:"nproc"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	Seed       int64                      `json:"seed"`
	Seconds    float64                    `json:"seconds"`
	Claim      *string                    `json:"claim"` // a benchmark change claims no gain
	Workloads  map[string]*workloadResult `json:"workloads"`
}

// runAll re-executes this binary once per workload (and once more, traced,
// with -trace), so that peak RSS and GC state belong to one workload, and
// writes the result envelope.
func runAll(cfg runConfig) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	res := &resultFile{
		Commit: gitCommit(), GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: cfg.seed, Seconds: cfg.seconds,
		Workloads: map[string]*workloadResult{},
	}
	code := 0
	for _, w := range workloads {
		wr := &workloadResult{Correct: true, Metrics: map[string]resultMetric{}}
		res.Workloads[w.Name] = wr
		modes := []int{0}
		if cfg.trace {
			modes = append(modes, 1)
		}
		for _, tr := range modes {
			cmd := exec.Command(self,
				"-workload", w.Name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
				fmt.Sprintf("-trace=%d", tr), "-out", cfg.outDir)
			var stdout bytes.Buffer
			cmd.Stdout = &stdout
			cmd.Stderr = os.Stderr
			runErr := cmd.Run()
			line, detail, perr := parseRun(stdout.Bytes())
			if perr != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s (trace=%d): %v (%v)\n", w.Name, tr, perr, runErr)
				wr.Correct = false
				code = 1
				continue
			}
			os.Stdout.Write(stdout.Bytes()[:bytes.Index(stdout.Bytes(), []byte(detailPrefix))])
			wr.Correct = wr.Correct && line.Correct
			wr.Attempted += line.Attempted
			wr.Failed += line.Failed
			for n, m := range line.Metrics {
				wr.Metrics[n] = resultMetric{Value: m.Value, Unit: m.Unit, Samples: detail.Samples[n]}
			}
			for n, m := range detail.Extra {
				if _, dup := wr.Metrics[n]; !dup {
					wr.Metrics[n] = resultMetric{Value: m.Value, Unit: m.Unit, Samples: detail.Samples[n]}
				}
			}
			if runErr != nil || !line.Correct {
				code = 1
			}
		}
		wr.FailRatio = float64(wr.Failed) / float64(max(wr.Attempted, 1))
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("result-%d.json", cfg.seed))
	data, _ := json.MarshalIndent(res, "", "  ")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("# wrote %s\n", path)
	return code
}

// parseRun finds the detail line and the contract line in a child's output.
func parseRun(stdout []byte) (runLine, detailLine, error) {
	var line runLine
	var detail detailLine
	lines := strings.Split(strings.TrimRight(string(stdout), "\n"), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[len(lines)-2], detailPrefix) {
		return line, detail, fmt.Errorf("no result printed")
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return line, detail, err
	}
	err := json.Unmarshal([]byte(strings.TrimPrefix(lines[len(lines)-2], detailPrefix)), &detail)
	return line, detail, err
}

// gitCommit names the measured commit when the checkout is a repository.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
