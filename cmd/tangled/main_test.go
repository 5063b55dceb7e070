package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs fn with stdout redirected and returns what it printed.
func capture(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		buf.ReadFrom(r)
		done <- buf.String()
	}()
	ferr := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	if ferr != nil {
		t.Fatalf("command failed: %v\noutput:\n%s", ferr, out)
	}
	return out
}

func TestCmdStores(t *testing.T) {
	out := capture(t, cmdStores)
	for _, want := range []string{"AOSP 4.4", "150", "Mozilla", "153", "iOS7", "227"} {
		if !strings.Contains(out, want) {
			t.Errorf("stores output missing %q", want)
		}
	}
}

func TestCmdDiff(t *testing.T) {
	out := capture(t, func() error { return cmdDiff([]string{"aosp4.4", "mozilla"}) })
	for _, want := range []string{"shared (equivalent): 130", "byte-identical: 117", "only in AOSP 4.4 (20)", "only in Mozilla (23)"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
	if err := cmdDiff([]string{"aosp4.4"}); err == nil {
		t.Error("diff with one arg should error")
	}
	if err := cmdDiff([]string{"aosp4.4", "nosuchstore"}); err == nil {
		t.Error("diff with unknown store should error")
	}
}

func TestCmdExportAuditRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cacerts")
	out := capture(t, func() error { return cmdExport([]string{"aosp4.2", dir}) })
	if !strings.Contains(out, "wrote 140 certificates") {
		t.Errorf("export output: %s", out)
	}
	audit := capture(t, func() error { return cmdAudit([]string{"-version", "4.2", dir}) })
	for _, want := range []string{"140 roots", "AOSP roots present: 140", "missing: 0", "additional roots:   0"} {
		if !strings.Contains(audit, want) {
			t.Errorf("audit output missing %q:\n%s", want, audit)
		}
	}
	// Auditing an empty directory reports a 0-root device store.
	empty := capture(t, func() error { return cmdAudit([]string{t.TempDir()}) })
	if !strings.Contains(empty, "0 roots") {
		t.Errorf("empty-dir audit output:\n%s", empty)
	}
}

func TestCmdClassifyAndShow(t *testing.T) {
	out := capture(t, func() error { return cmdClassify([]string{"DoD CLASS 3 Root CA"}) })
	for _, want := range []string{"extra-ios7-only", "in iOS7:      true", "in Mozilla:   false"} {
		if !strings.Contains(out, want) {
			t.Errorf("classify output missing %q:\n%s", want, out)
		}
	}
	if err := cmdClassify([]string{"No Such Root"}); err == nil {
		t.Error("classify unknown root should error")
	}

	show := capture(t, func() error { return cmdShow([]string{"-pem", "Motorola FOTA Root CA"}) })
	for _, want := range []string{"CN=Motorola FOTA Root CA", "BEGIN CERTIFICATE", "Android subject hash"} {
		if !strings.Contains(show, want) {
			t.Errorf("show output missing %q", want)
		}
	}
}

func TestCmdSurface(t *testing.T) {
	out := capture(t, func() error { return cmdSurface([]string{"aggregated"}) })
	if !strings.Contains(out, "262 roots") || !strings.Contains(out, "212 roots") {
		t.Errorf("surface output:\n%s", out)
	}
}

func TestCmdFleetExportLoad(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	gen := capture(t, func() error {
		return cmdFleet([]string{"-scale", "0.02", "-export", dir})
	})
	if !strings.Contains(gen, "dataset written") {
		t.Errorf("fleet export output:\n%s", gen)
	}
	load := capture(t, func() error { return cmdFleet([]string{"-load", dir}) })
	if !strings.Contains(load, "Sessions") || !strings.Contains(load, "Device model") {
		t.Errorf("fleet load output:\n%s", load)
	}
}

// TestCmdWriteFormatAutoRefused pins that both commands that write a
// dataset refuse -format auto, which a writer would write as JSONL.
func TestCmdWriteFormatAutoRefused(t *testing.T) {
	dir := t.TempDir()
	for name, run := range map[string]func() error{
		"dataset convert": func() error {
			return cmdDataset([]string{"convert", "-format", "auto", filepath.Join(dir, "src"), filepath.Join(dir, "dst")})
		},
		"fleet -export": func() error {
			return cmdFleet([]string{"-scale", "0.01", "-export", filepath.Join(dir, "fleet"), "-format", "auto"})
		},
	} {
		if err := run(); err == nil || !strings.Contains(err.Error(), "want jsonl or columnar") {
			t.Errorf("%s -format auto: err = %v, want the format error", name, err)
		}
	}
}

func TestCmdMinimizeSweep(t *testing.T) {
	out := capture(t, func() error {
		return cmdMinimize([]string{"-leaves", "800", "-sweep", "aosp4.1"})
	})
	if !strings.Contains(out, "threshold sweep") || !strings.Contains(out, "removed%") {
		t.Errorf("minimize sweep output:\n%s", out)
	}
}

func TestResolveStore(t *testing.T) {
	for _, name := range []string{"aosp4.1", "aosp4.2", "aosp4.3", "aosp4.4", "mozilla", "ios7", "aggregated"} {
		s, err := resolveStore(name)
		if err != nil || s == nil {
			t.Errorf("resolveStore(%q): %v", name, err)
		}
	}
	if _, err := resolveStore("bogus"); err == nil {
		t.Error("bogus store should error")
	}
	if _, err := resolveStore("/nonexistent/path"); err == nil {
		t.Error("nonexistent path should error")
	}
}
