package hedc

import (
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestDesignInventoryListsEveryPackage holds DESIGN.md's "System inventory
// (every module)" to its title: every package under internal/, cmd/ and
// examples/ that go list prints has a bullet there, and every package a
// bullet names exists.
func TestDesignInventoryListsEveryPackage(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	const heading = "## System inventory (every module)\n"
	_, section, ok := strings.Cut(string(doc), heading)
	if !ok {
		t.Fatalf("DESIGN.md has no %q heading", strings.TrimSpace(heading))
	}
	section, _, _ = strings.Cut(section, "\n## ")

	// A bullet opens with one or more comma-separated package paths.
	bullet := regexp.MustCompile("(?m)^- ((?:`(?:internal|cmd|examples)/[^`]+`(?:, )?)+)")
	path := regexp.MustCompile("`([^`]+)`")
	named := map[string]bool{}
	for _, m := range bullet.FindAllStringSubmatch(section, -1) {
		for _, p := range path.FindAllStringSubmatch(m[1], -1) {
			named[p[1]] = true
		}
	}

	out, err := exec.Command("go", "list", "./internal/...", "./cmd/...", "./examples/...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	listed := map[string]bool{}
	for _, line := range strings.Fields(string(out)) {
		listed[strings.TrimPrefix(line, "repro/")] = true
	}

	var missing, stale []string
	for p := range listed {
		if !named[p] {
			missing = append(missing, p)
		}
	}
	for p := range named {
		if !listed[p] {
			stale = append(stale, p)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("packages with no inventory bullet in DESIGN.md: %v", missing)
	}
	if len(stale) > 0 {
		t.Errorf("inventory bullets naming no package: %v", stale)
	}
}
