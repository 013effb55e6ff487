package testbed

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"livesec/internal/core"
)

// TestConfigurationSurfaceDocumented holds DESIGN.md § Configuration
// surface to the code: its table has one row per field of core.Config,
// Options, Spec and Spec's element types, named Type.Field, and no row
// for a field that does not exist.
func TestConfigurationSurfaceDocumented(t *testing.T) {
	text, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(text), "\n## Configuration surface\n")
	if !ok {
		t.Fatal("DESIGN.md has no § Configuration surface")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	rows := map[string]int{}
	for _, line := range strings.Split(section, "\n") {
		if cell, ok := strings.CutPrefix(line, "| `"); ok {
			name, _, _ := strings.Cut(cell, "`")
			rows[name]++
		}
	}

	fields := map[string]bool{}
	for _, v := range []any{core.Config{}, Options{}, Spec{}, SwitchSpec{}, HostSpec{}, ElementSpec{}, Node{}} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			fields[typ.Name()+"."+typ.Field(i).Name] = true
		}
	}
	for f := range fields {
		if rows[f] != 1 {
			t.Errorf("field %s has %d rows in § Configuration surface, want 1", f, rows[f])
		}
	}
	for r := range rows {
		if !fields[r] {
			t.Errorf("§ Configuration surface row %s names no field", r)
		}
	}
}
