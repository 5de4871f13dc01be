package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"etlopt/internal/clidoc"
	"etlopt/internal/dsl"
)

func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "etlgen")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("building etlgen: %v\n%s", err, out)
	}
	return bin
}

func TestCLIGenerateParsesBack(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildTool(t)
	dir := t.TempDir()
	out, err := exec.Command(bin, "-category", "small", "-n", "2", "-seed", "3", "-dir", dir).CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("generated %d files, want 2", len(entries))
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".etl") {
			t.Errorf("unexpected file %s", e.Name())
		}
		text, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		g, err := dsl.Parse(string(text))
		if err != nil {
			t.Errorf("%s does not parse: %v", e.Name(), err)
			continue
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s invalid: %v", e.Name(), err)
		}
	}
}

func TestCLIGenerateBadCategory(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildTool(t)
	if err := exec.Command(bin, "-category", "gigantic").Run(); err == nil {
		t.Error("unknown category should fail")
	}
}

// TestCLIGenerateSharedSuite covers -suite: the emitted workflows must
// parse, validate, and actually share their extract/clean prefix — same
// source data files, diverging post-union pipelines.
func TestCLIGenerateSharedSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildTool(t)
	dir := t.TempDir()
	dataDir := t.TempDir()
	out, err := exec.Command(bin, "-category", "small", "-suite", "2", "-seed", "9",
		"-dir", dir, "-data", dataDir).CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	var texts []string
	for i := 1; i <= 2; i++ {
		name := filepath.Join(dir, "small-shared-0"+string(rune('0'+i))+".etl")
		text, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := dsl.Parse(string(text))
		if err != nil {
			t.Fatalf("%s does not parse: %v", name, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", name, err)
		}
		texts = append(texts, string(text))
	}
	if texts[0] == texts[1] {
		t.Error("suite members are wholesale copies; post-union pipelines should diverge")
	}
	src1, err := os.ReadFile(filepath.Join(dataDir, "small-shared-01", "SRC1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	src2, err := os.ReadFile(filepath.Join(dataDir, "small-shared-02", "SRC1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(src1) != string(src2) {
		t.Error("suite members do not share source data")
	}
}

// TestREADMEFlagsExist: every -flag README.md passes to etlgen is a flag
// `etlgen -h` lists.
func TestREADMEFlagsExist(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildTool(t)
	clidoc.Check(t, "../../README.md", "etlgen", func([]string) []byte {
		out, _ := exec.Command(bin, "-h").CombinedOutput()
		return out
	})
}
