package atomicfile

import (
	"os"
	"path/filepath"
	"testing"
)

// TestWriteReplacesAndCleansUp overwrites a file, then fails a rename
// onto a directory: the target keeps its last content or stays a
// directory, and no temporary file is left behind either way.
func TestWriteReplacesAndCleansUp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "record.json")
	for _, content := range []string{"first\n", "second\n"} {
		if err := Write(path, []byte(content)); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != content {
			t.Errorf("read back %q, %v; want %q", got, err, content)
		}
	}

	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := Write(blocked, []byte("x")); err == nil {
		t.Error("renaming over a non-empty directory should fail")
	}
	if err := Write(filepath.Join(dir, "missing", "f"), []byte("x")); err == nil {
		t.Error("writing into a missing directory should fail")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("directory holds %v, want only record.json and blocked", names)
	}
}
