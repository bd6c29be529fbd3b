package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts `// want "regex"` expectation comments from fixture
// sources. Multiple wants may share a line.
var wantRe = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

// expectation is one want comment: a diagnostic must land on (file,
// line) with a message matching re.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// loadExpectations scans every .go file under root for want comments.
func loadExpectations(t *testing.T, root string) []*expectation {
	t.Helper()
	var out []*expectation
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, m := range wantRe.FindAllStringSubmatch(sc.Text(), -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					return fmt.Errorf("%s:%d: bad want regex %q: %v", rel, line, m[1], err)
				}
				out = append(out, &expectation{file: filepath.ToSlash(rel), line: line, re: re})
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// runFixture loads the named testdata module, runs the full analyzer
// suite, and matches the findings against the fixture's want comments:
// every finding must be expected, and every expectation must be hit.
func runFixture(t *testing.T, name string) []Diagnostic {
	t.Helper()
	root := filepath.Join("testdata", name)
	prog, err := Load(root)
	if err != nil {
		t.Fatalf("Load(%s): %v", root, err)
	}
	diags := Run(prog, All())
	wants := loadExpectations(t, root)
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.File && w.line == d.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.re)
		}
	}
	return diags
}

func TestDeterminismGolden(t *testing.T) { runFixture(t, "determinism") }
func TestHotpathGolden(t *testing.T)     { runFixture(t, "hotpath") }
func TestCtxHygieneGolden(t *testing.T)  { runFixture(t, "ctxhygiene") }
func TestPkgDocGolden(t *testing.T)      { runFixture(t, "pkgdoc") }
func TestIgnoreDirectives(t *testing.T)  { runFixture(t, "ignoredir") }

// TestDeterminismExemptionIsLoadBearing proves the internal/live carve-out
// does real work: the fixture's internal/live package reads time.Now and
// reports nothing under the shipped analyzer (runFixture above), but a
// copy of the analyzer with the exemption stripped must flag it. The
// package is in scope and skipped, not silently unscanned.
func TestDeterminismExemptionIsLoadBearing(t *testing.T) {
	prog, err := Load(filepath.Join("testdata", "determinism"))
	if err != nil {
		t.Fatal(err)
	}
	stripped := *Determinism
	stripped.Exempt = nil
	hit := false
	for _, d := range Run(prog, []*Analyzer{&stripped}) {
		if strings.HasPrefix(d.File, "internal/live/") && strings.Contains(d.Message, "time.Now") {
			hit = true
		}
	}
	if !hit {
		t.Fatal("stripping the internal/live exemption produced no time.Now finding; the exemption is vacuous")
	}
	if _, ok := Determinism.Exempted(&Package{Rel: "internal/live"}); !ok {
		t.Fatal("Determinism does not exempt internal/live")
	}
	if _, ok := Determinism.Exempted(&Package{Rel: "internal/engine"}); ok {
		t.Fatal("Determinism exempts internal/engine; the carve-out leaks")
	}
}

// TestDeterministicOutput pins the framework's output contract: two runs
// over the same tree yield identical ordered findings.
func TestDeterministicOutput(t *testing.T) {
	a := runFixture(t, "determinism")
	b := runFixture(t, "determinism")
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs disagree:\n%v\nvs\n%v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("fixture produced no findings; determinism check is vacuous")
	}
}

// TestAnalyzerSelection checks subset runs: selecting only pkgdoc over
// the determinism fixture must not report determinism findings, and the
// fixture's determinism-only //tbvet:ignore directives (none) stay out
// of the stale check.
func TestAnalyzerSelection(t *testing.T) {
	prog, err := Load(filepath.Join("testdata", "determinism"))
	if err != nil {
		t.Fatal(err)
	}
	sel, err := ByName("pkgdoc")
	if err != nil {
		t.Fatal(err)
	}
	if diags := Run(prog, sel); len(diags) != 0 {
		t.Fatalf("pkgdoc-only run over determinism fixture reported: %v", diags)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName accepted an unknown analyzer")
	}
}

// TestSubsetRunSkipsForeignIgnores pins the stale-directive scoping: a
// directive naming an analyzer that did not run is neither applied nor
// reported stale.
func TestSubsetRunSkipsForeignIgnores(t *testing.T) {
	prog, err := Load(filepath.Join("testdata", "ignoredir"))
	if err != nil {
		t.Fatal(err)
	}
	sel, err := ByName("pkgdoc")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run(prog, sel) {
		// The malformed and unknown-analyzer directives still surface (they
		// are broken syntax regardless of selection); stale determinism
		// directives must not.
		if strings.Contains(d.Message, "stale") {
			t.Errorf("subset run reported a foreign directive as stale: %s", d)
		}
	}
}

// TestCleanTree is the shipped-tree gate in test form: the full analyzer
// suite over this repository reports nothing. CI additionally enforces
// this through `make vet`, but keeping it in `go test` means a bare test
// run catches a violation too.
func TestCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	prog, err := Load(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Packages) < 20 {
		t.Fatalf("suspiciously few packages loaded: %d", len(prog.Packages))
	}
	for _, d := range Run(prog, All()) {
		t.Errorf("finding on shipped tree: %s", d)
	}
}
