package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"livesec/internal/experiments"
)

func TestRunSingleExperimentCI(t *testing.T) {
	if err := run([]string{"-scale", "ci", "-experiment", "E1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWritesJSONReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := run([]string{"-scale", "ci", "-experiment", "A2", "-json", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report jsonReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("report not valid JSON: %v", err)
	}
	if report.Scale != "ci" || len(report.Experiments) != 1 {
		t.Fatalf("report = %+v", report)
	}
	exp := report.Experiments[0]
	if exp.ID == "" || len(exp.Rows) == 0 {
		t.Fatalf("experiment missing headline rows: %+v", exp)
	}
	for _, r := range exp.Rows {
		if r.Name == "" || r.Unit == "" {
			t.Fatalf("incomplete row: %+v", r)
		}
	}
}

// TestParallelOutputByteIdentical proves the -parallel flag cannot
// change results: serial and maximally parallel runs with -stable must
// write byte-identical JSON reports. Short mode covers a
// three-experiment subset; otherwise it runs the whole standard suite
// ("all").
func TestParallelOutputByteIdentical(t *testing.T) {
	exps := []string{"E1", "E5", "E6"}
	if !testing.Short() {
		exps = []string{"all"}
	}
	for _, exp := range exps {
		dir := t.TempDir()
		serial := filepath.Join(dir, "serial.json")
		parallel := filepath.Join(dir, "parallel.json")
		base := []string{"-scale", "ci", "-experiment", exp, "-stable"}
		if err := run(append(base, "-parallel", "1", "-json", serial)); err != nil {
			t.Fatal(err)
		}
		if err := run(append(base, "-parallel", "8", "-json", parallel)); err != nil {
			t.Fatal(err)
		}
		s, err := os.ReadFile(serial)
		if err != nil {
			t.Fatal(err)
		}
		p, err := os.ReadFile(parallel)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(s, p) {
			t.Fatalf("%s: serial and parallel -stable reports differ:\n--- serial ---\n%s\n--- parallel ---\n%s", exp, s, p)
		}
		// The stable report must not leak wall-clock fields.
		if bytes.Contains(s, []byte("generated_at")) || bytes.Contains(s, []byte(`"seconds"`)) ||
			bytes.Contains(s, []byte(`"total_seconds"`)) {
			t.Fatalf("%s: -stable report contains wall-clock fields:\n%s", exp, s)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-scale", "bogus"}); err == nil {
		t.Fatal("bad scale accepted")
	}
	err := run([]string{"-experiment", "E99"})
	if err == nil {
		t.Fatal("bad experiment accepted")
	}
	// The error lists what would have been accepted, built from the
	// Suite table so it cannot go stale.
	for _, e := range experiments.Suite {
		if !regexp.MustCompile(`\b` + e.ID + `\b`).MatchString(err.Error()) {
			t.Errorf("unknown-experiment error %q does not name %s", err, e.ID)
		}
	}
}
