package lint

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The fixture module under testdata/src is type-checked once per test binary:
// resolving stdlib imports through the source importer costs a few seconds,
// and every test reads the same immutable module.
var fixture struct {
	once sync.Once
	mod  *Module
	err  error
}

func loadFixture(t *testing.T) *Module {
	t.Helper()
	fixture.once.Do(func() {
		fixture.mod, fixture.err = LoadModule(filepath.Join("testdata", "src"))
	})
	if fixture.err != nil {
		t.Fatalf("loading fixture module: %v", fixture.err)
	}
	return fixture.mod
}

// normalize renders findings as the driver would. Run already returns
// module-root-relative slash paths, so the goldens are location-independent
// without any trimming here.
func normalize(findings []Finding) []string {
	lines := make([]string, 0, len(findings))
	for _, f := range findings {
		lines = append(lines, f.String())
	}
	return lines
}

func readGolden(t *testing.T) []string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "expect.txt"))
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	sort.Strings(lines)
	return lines
}

func diffLines(t *testing.T, got, want []string) {
	t.Helper()
	gotSet := map[string]bool{}
	for _, l := range got {
		gotSet[l] = true
	}
	wantSet := map[string]bool{}
	for _, l := range want {
		wantSet[l] = true
	}
	for _, l := range want {
		if !gotSet[l] {
			t.Errorf("missing finding: %s", l)
		}
	}
	for _, l := range got {
		if !wantSet[l] {
			t.Errorf("unexpected finding: %s", l)
		}
	}
}

// TestEndToEnd runs the full suite over the fixture module and asserts the
// exact finding set against testdata/expect.txt.
func TestEndToEnd(t *testing.T) {
	m := loadFixture(t)
	got := normalize(Run(m, Analyzers()))
	sort.Strings(got)
	diffLines(t, got, readGolden(t))
}

// TestAnalyzerGoldens runs each analyzer in isolation and checks that its
// findings are exactly the golden lines carrying its rule tag. Directive
// findings (always emitted by Run) are checked separately.
func TestAnalyzerGoldens(t *testing.T) {
	m := loadFixture(t)
	golden := readGolden(t)
	for _, a := range Analyzers() {
		t.Run(a.Name, func(t *testing.T) {
			tag := "[" + a.Name + "]"
			var want []string
			for _, l := range golden {
				if strings.Contains(l, tag) {
					want = append(want, l)
				}
			}
			if len(want) == 0 {
				t.Fatalf("golden has no findings for %s; fixture must cover every analyzer", a.Name)
			}
			var got []string
			for _, l := range normalize(Run(m, []*Analyzer{a})) {
				if strings.Contains(l, tag) {
					got = append(got, l)
				}
			}
			sort.Strings(got)
			diffLines(t, got, want)
		})
	}
}

// TestDirectiveFindings asserts the malformed-directive pseudo-rule findings
// appear even when no analyzers run: directive validation is unconditional.
func TestDirectiveFindings(t *testing.T) {
	m := loadFixture(t)
	tag := "[" + DirectiveRule + "]"
	var want []string
	for _, l := range readGolden(t) {
		if strings.Contains(l, tag) {
			want = append(want, l)
		}
	}
	if len(want) == 0 {
		t.Fatal("golden has no lintdirective findings; ignored/ fixtures must cover malformed directives")
	}
	got := normalize(Run(m, nil))
	sort.Strings(got)
	diffLines(t, got, want)
}

// TestSuppression asserts the well-formed directives in the fixtures actually
// silence findings: the suppressed lines must not reappear under any rule.
func TestSuppression(t *testing.T) {
	m := loadFixture(t)
	suppressed := []string{
		"ignored/ignored.go:12:", // trailing //lint:ignore
		"ignored/ignored.go:18:", // preceding-line //lint:ignore
		"ignored/fileignore.go:", // //lint:file-ignore
	}
	for _, l := range normalize(Run(m, Analyzers())) {
		for _, s := range suppressed {
			if strings.HasPrefix(l, s) {
				t.Errorf("finding survived suppression: %s", l)
			}
		}
	}
}

// TestCleanPackagesStayClean asserts the negative fixtures: certid (the
// sanctioned comparison package), the sanctioned DRBG/seeded-source files,
// and the compliant call sites produce no findings.
func TestCleanPackagesStayClean(t *testing.T) {
	m := loadFixture(t)
	cleanFiles := []string{
		"certid/certid.go",
		"certgen/drbg.go",
		"certgen/parse.go",
		"stats/rand.go",
		"resilient/clock.go",
		"parallel/parallel.go",
	}
	for _, l := range normalize(Run(m, Analyzers())) {
		for _, f := range cleanFiles {
			if strings.HasPrefix(l, f+":") {
				t.Errorf("sanctioned file flagged: %s", l)
			}
		}
	}
}

// TestKnownRules asserts every analyzer name and the directive pseudo-rules
// are registered for directive validation.
func TestKnownRules(t *testing.T) {
	rules := KnownRules()
	if !rules[DirectiveRule] {
		t.Errorf("KnownRules missing %s", DirectiveRule)
	}
	if !rules[UnusedIgnoreRule] {
		t.Errorf("KnownRules missing %s", UnusedIgnoreRule)
	}
	for _, a := range Analyzers() {
		if !rules[a.Name] {
			t.Errorf("KnownRules missing analyzer %s", a.Name)
		}
	}
}

// TestPackageScopesNameRealPackages asserts every package base name a
// rule scopes itself by names a package under the module's internal/: an
// entry whose package is gone silently checks nothing.
func TestPackageScopesNameRealPackages(t *testing.T) {
	scopes := map[string]map[string]bool{
		"ctxHTTPPackages":   ctxHTTPPackages,
		"detRandPackages":   detRandPackages,
		"detRandSanctioned": {},
		"detSinkPackages":   detSinkPackages,
		"certParseAllowed":  certParseAllowed,
	}
	for base := range detRandSanctioned {
		scopes["detRandSanctioned"][base] = true
	}
	for name, bases := range scopes {
		for base := range bases {
			// The test runs in internal/lint, so its siblings are the
			// module's internal packages.
			if files, _ := filepath.Glob(filepath.Join("..", base, "*.go")); len(files) == 0 {
				t.Errorf("%s names %q, but internal/%s holds no Go package", name, base, base)
			}
		}
	}
}

// TestWorkerCountInvariance asserts the determinism invariant the tool
// polices for everyone else: the finding list is identical at any worker
// count, including the serial reference execution.
func TestWorkerCountInvariance(t *testing.T) {
	m := loadFixture(t)
	want := normalize(Run(m, Analyzers(), WithWorkers(1)))
	for _, workers := range []int{2, 8} {
		got := normalize(Run(m, Analyzers(), WithWorkers(workers)))
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d findings, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("workers=%d: finding %d = %q, want %q", workers, i, got[i], want[i])
			}
		}
	}
}

// TestRelativePositions asserts every finding's path is module-root-relative
// and slash-separated, the contract CI annotations and baselines rely on.
func TestRelativePositions(t *testing.T) {
	m := loadFixture(t)
	for _, f := range Run(m, Analyzers()) {
		if filepath.IsAbs(f.Pos.Filename) {
			t.Errorf("absolute path in finding: %s", f)
		}
		if strings.Contains(f.Pos.Filename, "\\") || strings.Contains(f.Pos.Filename, "testdata") {
			t.Errorf("path not module-root-relative slash form: %s", f)
		}
	}
}

// TestUnusedIgnoreNotSuppressible asserts a stale directive cannot be hidden
// by another directive: unusedignore findings survive even file-wide
// suppression attempts, like lintdirective findings do.
func TestUnusedIgnoreNotSuppressible(t *testing.T) {
	m := loadFixture(t)
	idx, _ := buildIgnoreIndex(m)
	f := Finding{Rule: UnusedIgnoreRule}
	f.Pos.Filename = "unusedignore/unusedignore.go"
	f.Pos.Line = 6
	if idx.suppressed(f) {
		t.Error("unusedignore finding was suppressed; pseudo-rules must not be suppressible")
	}
}
