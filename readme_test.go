package timebounds_test

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestReadmeNamesEveryToolAndExample keeps README.md in step with the
// tree: the Tools table lists exactly the cmd/* commands (a row per
// subcommand counts toward its command) and the examples sentence exactly
// the examples/* programs, so adding, folding or deleting one cannot
// leave the README stale.
func TestReadmeNamesEveryToolAndExample(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)

	tools := section(t, readme, "\n## Tools\n", "\n`examples/`")
	var listed []string
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z0-9]+)[` ]").FindAllStringSubmatch(tools, -1) {
		listed = append(listed, m[1])
	}
	slices.Sort(listed)
	assertSameNames(t, "README Tools table", slices.Compact(listed), subdirs(t, "cmd"))

	examples := section(t, readme, "`examples/` walks through the API:", "\n\n")
	listed = nil
	for _, m := range regexp.MustCompile("`([a-z0-9]+)`").FindAllStringSubmatch(examples, -1) {
		listed = append(listed, m[1])
	}
	assertSameNames(t, "README examples sentence", listed, subdirs(t, "examples"))
}

// section returns the text of s from start up to the next end after it.
func section(t *testing.T, s, start, end string) string {
	t.Helper()
	i := strings.Index(s, start)
	if i < 0 {
		t.Fatalf("README has no %q", start)
	}
	s = s[i+len(start):]
	if j := strings.Index(s, end); j >= 0 {
		s = s[:j]
	}
	return s
}

func subdirs(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names
}

// assertSameNames reports unless listed names exactly the directories
// (os.ReadDir returns them sorted), each once.
func assertSameNames(t *testing.T, what string, listed, dirs []string) {
	t.Helper()
	slices.Sort(listed)
	if !slices.Equal(listed, dirs) {
		t.Errorf("%s names %v, want the directories %v", what, listed, dirs)
	}
}
