// Package golden pins a test's output against testdata/<name>.golden. Only
// tests import it; importing it registers the -update flag that blesses the
// files:
//
//	go test ./cmd/... -run Golden -update
package golden

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files with the current output")

// Check compares got against testdata/<name>.golden in the test's package
// directory, rewriting the file first under -update.
func Check(t testing.TB, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (bless the golden file with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from %s (re-bless with -update after checking the diff):\n--- got ---\n%s", path, got)
	}
}
