package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// genLateLimitMS is how late the open-loop generator may have run at its
// 99th percentile before the open-loop latencies are the host's and not
// the system's; the compare tool then calls them unresolved, not changed.
// (The generator shares two cores with the system it drives: on the host
// of the first numbers its p99 lateness is 3-4 ms when nothing disturbs.)
const genLateLimitMS = 10.0

// openLoopMetrics are measured from due times in the open-loop phase of
// the cell workloads.
var openLoopMetrics = map[string]bool{
	"op_p50_ms": true, "op_p95_ms": true, "web.page_p99_ms": true,
	"web.over_50ms_ratio": true, "write_p50_ms": true, "write_p95_ms": true,
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints one row per metric x workload: the base value, the
// new value, the relative change in the direction that counts as worse,
// and the verdict against the metric's bound. It returns 1 when an
// end-to-end metric got worse by more than its bound or a workload's
// fail_ratio rose, 2 when a file cannot be read.
func compareFiles(basePath, newPath string, w io.Writer) int {
	base, err := readResult(basePath)
	if err == nil {
		var next *resultFile
		if next, err = readResult(newPath); err == nil {
			return compareResults(base, next, w)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

func compareResults(base, next *resultFile, w io.Writer) int {
	fmt.Fprintf(w, "base %s seed=%d (%s, nproc %d)\nnew  %s seed=%d (%s, nproc %d)\n",
		base.Commit, base.Seed, base.GoVersion, base.NProc, next.Commit, next.Seed, next.GoVersion, next.NProc)
	fmt.Fprintf(w, "%-13s %-32s %14s %14s %9s %7s  %s\n", "workload", "metric", "base", "new", "worse by", "bound", "verdict")
	defs := map[string]metricDef{}
	for _, group := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range group {
			defs[d.Name] = d
		}
	}
	breaches := 0
	for _, wl := range workloads {
		a, b := base.Workloads[wl.Name], next.Workloads[wl.Name]
		if a == nil || b == nil {
			continue
		}
		verdict := "ok"
		if b.FailRatio > a.FailRatio {
			verdict = "BREACH"
			breaches++
		}
		fmt.Fprintf(w, "%-13s %-32s %14.6f %14.6f %9s %7s  %s\n", wl.Name, "fail_ratio", a.FailRatio, b.FailRatio, "", "any", verdict)
		late := false
		for _, r := range []*workloadResult{a, b} {
			if m, ok := r.Metrics["load.gen_late_p99_ms"]; ok && m.Value > genLateLimitMS {
				late = true
			}
		}
		names := make([]string, 0, len(a.Metrics))
		for n := range a.Metrics {
			if _, both := b.Metrics[n]; both {
				names = append(names, n)
			}
		}
		sort.Slice(names, func(i, j int) bool {
			bi, bj := defs[names[i]].Bound > 0, defs[names[j]].Bound > 0
			if bi != bj {
				return bi // end-to-end first
			}
			return names[i] < names[j]
		})
		for _, n := range names {
			av, bv := a.Metrics[n].Value, b.Metrics[n].Value
			d := defs[n]
			if av == 0 && bv == 0 && d.Bound == 0 {
				continue // a layer this workload does not run
			}
			worse := 0.0
			if av != 0 {
				worse = (bv - av) / av
				if d.Better == "higher" {
					worse = -worse
				}
			}
			bound, verdict := "", ""
			if d.Bound > 0 {
				bound, verdict = fmt.Sprintf("%.2f", d.Bound), "ok"
				switch {
				case late && openLoopMetrics[n]:
					verdict = "unresolved (generator late)"
				case worse > d.Bound:
					verdict = "BREACH"
					breaches++
				}
			}
			fmt.Fprintf(w, "%-13s %-32s %14.4f %14.4f %+8.1f%% %7s  %s\n", wl.Name, n, av, bv, 100*worse, bound, verdict)
		}
	}
	if breaches > 0 {
		fmt.Fprintf(w, "%d breach(es)\n", breaches)
		return 1
	}
	return 0
}
