package trace

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestSpecOpensEachSource: Open builds exactly the trace the generator, a
// family and the importer build when called directly, so a front end that
// opens its trace through the spec replays identical input.
func TestSpecOpensEachSource(t *testing.T) {
	sp := Spec{Machines: 20, Tasks: 100, HorizonSec: 3600, Seed: 7}
	for _, modified := range []bool{false, true} {
		cfg := DefaultConfig()
		if modified {
			cfg = ModifiedConfig()
		}
		cfg.Machines, cfg.Tasks, cfg.HorizonSec, cfg.Seed = 20, 100, 3600, 7
		want, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sp.Modified = modified
		if got, err := sp.Open(); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("modified=%v: Open = %v, want the generator's %s trace", modified, err, want.Name)
		}
	}

	sp.Modified, sp.Family = false, "mlbatch"
	want, err := GenerateFamily("mlbatch", FamilyParams{Machines: 20, Tasks: 100, HorizonSec: 3600, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := sp.Open(); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("family: Open = %v, want the family's trace", err)
	}

	path := filepath.Join(t.TempDir(), "t.csv.gz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := want.EncodeCSV(f, true); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	want, err = ImportFile(path, ImportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sp.Family, sp.File = "", path
	if got, err := sp.Open(); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("file: Open = %v, want the imported trace", err)
	}
}

// TestSpecValidate pins the shape check's one message format: each error
// names the JSON key at fault.
func TestSpecValidate(t *testing.T) {
	ok := Spec{Machines: 1, Tasks: 1, HorizonSec: 1}
	if err := ok.Validate(); err != nil {
		t.Fatalf("minimal spec rejected: %v", err)
	}
	cases := []struct {
		edit func(*Spec)
		want string
	}{
		{func(s *Spec) { s.Machines = 0 }, "machines 0 out of range (need >= 1)"},
		{func(s *Spec) { s.Tasks = -2 }, "tasks -2 out of range (need >= 1)"},
		{func(s *Spec) { s.HorizonSec = 0 }, "horizon_sec 0 out of range (need >= 1)"},
		{func(s *Spec) { s.Family, s.File = "diurnal", "x.csv" }, "family and file are mutually exclusive"},
		{func(s *Spec) { s.Modified, s.File = true, "x.csv" }, "modified applies to the built-in generator only; drop it with family or file"},
		{func(s *Spec) { s.Family = "nope" },
			`family: trace: unknown family "nope" (valid: diurnal, flashcrowd, serverless, mlbatch, heavytail, mix)`},
	}
	for _, c := range cases {
		s := ok
		c.edit(&s)
		if err := s.Validate(); err == nil || err.Error() != c.want {
			t.Errorf("Validate(%+v) = %v, want %q", s, err, c.want)
		}
		if tr, err := s.Open(); err == nil || err.Error() != c.want {
			t.Errorf("Open(%+v) = %v, %v; want %q before any trace is built", s, tr, err, c.want)
		}
	}
}
