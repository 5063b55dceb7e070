package main

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureDir is the analyzer fixture module every driver test points at.
func fixtureDir() string {
	return filepath.Join("..", "..", "internal", "lint", "testdata", "src")
}

// TestRunFixtureModule points the driver at the analyzer fixture module and
// checks the reporting contract: one "file:line: [rule] message" line per
// finding and a positive count.
func TestRunFixtureModule(t *testing.T) {
	var out strings.Builder
	n, err := run([]string{fixtureDir()}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if n == 0 {
		t.Fatal("fixture module produced no findings")
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) != n {
		t.Fatalf("printed %d lines, reported %d findings", len(lines), n)
	}
	for _, l := range lines {
		rest := l[strings.IndexByte(l, ':')+1:]
		if !strings.Contains(rest, ": [") || !strings.Contains(rest, "] ") {
			t.Errorf("malformed finding line: %q", l)
		}
	}
}

// TestRunSelf runs the driver over its own module, which must stay clean:
// the lint gate in verify.sh depends on it.
func TestRunSelf(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checking the full module is slow")
	}
	var out strings.Builder
	n, err := run([]string{"./..."}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if n != 0 {
		t.Errorf("module is not lint-clean:\n%s", out.String())
	}
}

// TestRunUsage rejects extra arguments.
func TestRunUsage(t *testing.T) {
	if _, err := run([]string{"a", "b"}, &strings.Builder{}); err == nil {
		t.Fatal("want usage error for two arguments")
	}
}

// TestRunNoModule reports a load error for a directory outside any module.
func TestRunNoModule(t *testing.T) {
	if _, err := run([]string{t.TempDir()}, &strings.Builder{}); err == nil {
		t.Fatal("want error for directory without go.mod")
	}
}

// TestJSONByteIdentityAcrossWorkers is the acceptance gate for the
// parallelized walk: -format=json output must be byte-identical at 1 and 8
// workers — the tool obeys the determinism invariant it checks.
func TestJSONByteIdentityAcrossWorkers(t *testing.T) {
	render := func(workers string) string {
		var out strings.Builder
		n, err := run([]string{"-format", "json", "-workers", workers, fixtureDir()}, &out)
		if err != nil {
			t.Fatalf("run(workers=%s): %v", workers, err)
		}
		if n == 0 {
			t.Fatalf("run(workers=%s): no findings from fixture module", workers)
		}
		return out.String()
	}
	one, eight := render("1"), render("8")
	if one != eight {
		t.Errorf("JSON output differs between 1 and 8 workers:\n--- workers=1\n%s\n--- workers=8\n%s", one, eight)
	}
}

// TestJSONFormat checks the machine-readable contract: one JSON object per
// line with the fields the CI problem matcher keys off, and relative
// slash-separated paths.
func TestJSONFormat(t *testing.T) {
	var out strings.Builder
	if _, err := run([]string{"-format", "json", fixtureDir()}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, line := range strings.Split(strings.TrimRight(out.String(), "\n"), "\n") {
		var f struct {
			File string `json:"file"`
			Line int    `json:"line"`
			Col  int    `json:"col"`
			Rule string `json:"rule"`
			Msg  string `json:"msg"`
		}
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("line is not a JSON finding: %q: %v", line, err)
		}
		if f.File == "" || f.Line <= 0 || f.Rule == "" || f.Msg == "" {
			t.Errorf("incomplete finding: %q", line)
		}
		if filepath.IsAbs(f.File) || strings.Contains(f.File, "\\") {
			t.Errorf("file not relative slash path: %q", f.File)
		}
	}
}

// TestBadFormat rejects unknown -format values with a usage error.
func TestBadFormat(t *testing.T) {
	if _, err := run([]string{"-format", "xml", fixtureDir()}, &strings.Builder{}); err == nil {
		t.Fatal("want usage error for -format xml")
	}
}
