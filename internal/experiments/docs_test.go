package experiments

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestExperimentIndexDocumented holds the two experiment tables to
// Suite: README's § Reproducing the evaluation and DESIGN.md's
// § Experiment index each have exactly one row per Suite ID and no row
// for an ID Suite lacks, and every benchmark README names in backticks
// is a function of the root bench_test.go.
func TestExperimentIndexDocumented(t *testing.T) {
	read := func(name string) string {
		t.Helper()
		text, err := os.ReadFile("../../" + name)
		if err != nil {
			t.Fatal(err)
		}
		return string(text)
	}
	want := map[string]bool{}
	for _, e := range Suite {
		want[e.ID] = true
	}
	row := regexp.MustCompile(`(?m)^\| ([EA][0-9]+)\b`)
	for _, doc := range []struct{ file, section string }{
		{"README.md", "## Reproducing the evaluation"},
		{"DESIGN.md", "## Experiment index"},
	} {
		_, section, ok := strings.Cut(read(doc.file), "\n"+doc.section)
		if !ok {
			t.Fatalf("%s has no %s", doc.file, doc.section)
		}
		section, _, _ = strings.Cut(section, "\n## ")
		rows := map[string]int{}
		for _, m := range row.FindAllStringSubmatch(section, -1) {
			rows[m[1]]++
		}
		for id := range want {
			if rows[id] != 1 {
				t.Errorf("%s: %s has %d rows, want 1", doc.file, id, rows[id])
			}
		}
		for id := range rows {
			if !want[id] {
				t.Errorf("%s: row %s is not an experiments.Suite ID", doc.file, id)
			}
		}
	}
	bench := read("bench_test.go")
	for _, m := range regexp.MustCompile("`(Benchmark\\w+)`").FindAllStringSubmatch(read("README.md"), -1) {
		if !strings.Contains(bench, "func "+m[1]+"(") {
			t.Errorf("README names %s, which bench_test.go does not define", m[1])
		}
	}
}
