package analysis

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// fixtureFindings runs the source passes over the testdata fixture.
func fixtureFindings(t *testing.T) []Finding {
	t.Helper()
	fs, err := AnalyzeSource([]string{"./testdata/src/fixture"})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// byCheck filters findings by check name.
func byCheck(fs []Finding, check string) []Finding {
	var out []Finding
	for _, f := range fs {
		if f.Check == check {
			out = append(out, f)
		}
	}
	return out
}

// TestFixtureMapIteration: every order-sensitive sink in the fixture is
// flagged, and every exempted idiom is not.
func TestFixtureMapIteration(t *testing.T) {
	fs := byCheck(fixtureFindings(t), "map-iteration")
	wantSubstr := []string{
		"append to keys",      // BadAppend
		"assignment to last",  // BadLastWriter
		"accumulation of sum", // BadFloatSum
		"store into out",      // BadCounterIndex
		"return of a range",   // BadEarlyReturn
		"b.WriteString",       // BadBuilder
		"send on ch",          // BadSend
	}
	if len(fs) != len(wantSubstr) {
		t.Errorf("want %d map-iteration findings, got %d: %v", len(wantSubstr), len(fs), fs)
	}
	for _, want := range wantSubstr {
		found := false
		for _, f := range fs {
			if strings.Contains(f.Message, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no finding mentioning %q in %v", want, fs)
		}
	}
	// The exempted idioms live between lines the violations pin; make the
	// boundary explicit: nothing may point into a Good* function.
	src := mustReadFixture(t)
	for _, f := range fs {
		if fn := enclosingFixtureFunc(src, f.Where); strings.HasPrefix(fn, "Good") {
			t.Errorf("false positive inside %s: %s", fn, f)
		}
	}
}

func TestFixtureOtherPasses(t *testing.T) {
	fs := fixtureFindings(t)
	for check, want := range map[string]int{
		"wall-clock": 1,
		"randomness": 1,
	} {
		if got := len(byCheck(fs, check)); got != want {
			t.Errorf("%s: want %d finding(s), got %d: %v", check, want, got, byCheck(fs, check))
		}
	}
}

// TestOptimizerSourcesLintClean is the acceptance check: the determinism
// linter runs clean over the search core and the execution engine (and,
// since CI enforces it, the whole internal tree).
func TestOptimizerSourcesLintClean(t *testing.T) {
	fs, err := AnalyzeSource([]string{"../core", "../engine"})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		t.Errorf("determinism finding in optimizer sources: %s", f)
	}
}

func TestInternalTreeLintsClean(t *testing.T) {
	fs, err := AnalyzeSource([]string{"./../..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		t.Errorf("determinism finding under internal/: %s", f)
	}
}

// TestExpandSkipsNestedModules: "dir/..." stops at a directory with its
// own go.mod, as the go tool does. Before, the repository benchmark's
// module sorted first among the matches of "./..." and every other
// package was reported outside it.
func TestExpandSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	for _, f := range []string{"go.mod", "a/a.go", "a/sub/sub.go", "nested/go.mod", "nested/n.go", "nested/deep/d.go"} {
		path := filepath.Join(root, f)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte("package p\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dirs, err := expandPatterns([]string{root + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{filepath.Join(root, "a"), filepath.Join(root, "a", "sub")}
	if !slices.Equal(dirs, want) {
		t.Errorf("expandPatterns = %v, want %v", dirs, want)
	}
	// Naming the nested module itself still expands it.
	dirs, err = expandPatterns([]string{filepath.Join(root, "nested") + "/..."})
	if err != nil || len(dirs) != 2 {
		t.Errorf("expanding the nested module: %v, %v; want its 2 packages", dirs, err)
	}
}

// mustReadFixture loads the fixture source for location checks.
func mustReadFixture(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile("testdata/src/fixture/fixture.go")
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(string(data), "\n")
}

// enclosingFixtureFunc maps a finding location ("fixture.go:42:7") to the
// name of the func declaration above that line.
func enclosingFixtureFunc(lines []string, where string) string {
	parts := strings.Split(where, ":")
	if len(parts) < 2 {
		return ""
	}
	line := 0
	for _, c := range parts[1] {
		line = line*10 + int(c-'0')
	}
	name := ""
	for i := 0; i < line && i < len(lines); i++ {
		if rest, ok := strings.CutPrefix(lines[i], "func "); ok {
			name = rest[:strings.IndexAny(rest, "(")]
		}
	}
	return name
}
