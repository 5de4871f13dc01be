// Package clidoc holds the command lines the docs show to the flags each
// command defines, and the test names they cite to the tests, so README.md,
// DESIGN.md and EXPERIMENTS.md never advertise a flag or a test that is
// gone. Each command's tests call Check; the package's own test checks the
// test names.
package clidoc

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Check fails t for every -flag that the tool's usage does not list and
// that a `$ go run ./cmd/<tool> …` line of the README at path passes, or a
// backticked `[go run ./]cmd/<tool> …` or `<tool> …` span of DESIGN.md or
// EXPERIMENTS.md beside it. usage returns the -h output the command's
// arguments are checked against (etlvet's depends on its subcommand, the
// first argument). A README that shows the tool no command fails too.
func Check(t testing.TB, path, tool string, usage func(args []string) []byte) {
	t.Helper()
	cmds := commands(read(t, path), "$ go run ./cmd/"+tool)
	if len(cmds) == 0 {
		t.Fatalf("%s shows no %s command", path, tool)
	}
	check(t, path, tool, cmds, usage)
	for _, doc := range []string{"DESIGN.md", "EXPERIMENTS.md"} {
		doc = filepath.Join(filepath.Dir(path), doc)
		check(t, doc, tool, spans(read(t, doc), tool), usage)
	}
}

func read(t testing.TB, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// check fails t for every flag of cmds, found in the file at path, that
// the tool's usage does not list.
func check(t testing.TB, path, tool string, cmds []command, usage func(args []string) []byte) {
	t.Helper()
	for _, c := range cmds {
		names := c.flags()
		if len(names) == 0 {
			continue
		}
		help := usage(c.args)
		for _, name := range names {
			if !regexp.MustCompile(`(?m)^  -` + regexp.QuoteMeta(name) + `(\s|$)`).Match(help) {
				t.Errorf("%s:%d passes -%s, which %s's usage does not list", path, c.line, name, tool)
			}
		}
	}
}

// command is one command line of the README.
type command struct {
	line int      // the line the command starts on
	args []string // the tool's arguments: continuation lines joined, the # comment dropped
}

// commands returns the README's lines that start with prefix, in order. A
// line ending in a backslash continues on the next.
func commands(readme, prefix string) []command {
	lines := strings.Split(readme, "\n")
	var out []command
	for i := 0; i < len(lines); i++ {
		text := lines[i]
		if text != prefix && !strings.HasPrefix(text, prefix+" ") {
			continue
		}
		start := i
		for strings.HasSuffix(text, `\`) && i+1 < len(lines) {
			i++
			text = strings.TrimSuffix(text, `\`) + " " + lines[i]
		}
		text, _, _ = strings.Cut(text[len(prefix):], " #")
		out = append(out, command{line: start + 1, args: strings.Fields(text)})
	}
	return out
}

// spans returns the backticked code spans of doc that run tool, in order:
// `tool …`, `cmd/tool …` or `go run ./cmd/tool …`. A span may wrap lines.
func spans(doc, tool string) []command {
	re := regexp.MustCompile("`(?:go run \\./)?(?:cmd/)?" + regexp.QuoteMeta(tool) + "((?:\\s[^`]*)?)`")
	var out []command
	for _, m := range re.FindAllStringSubmatchIndex(doc, -1) {
		out = append(out, command{
			line: strings.Count(doc[:m[0]], "\n") + 1,
			args: strings.Fields(doc[m[2]:m[3]]),
		})
	}
	return out
}

// flags returns the names of the -flags among c's arguments; a negative
// number, the value of the flag before it, is not one.
func (c command) flags() []string {
	var out []string
	for _, a := range c.args {
		name, _, _ := strings.Cut(strings.TrimLeft(a, "-"), "=")
		if strings.HasPrefix(a, "-") && name != "" && (name[0] < '0' || name[0] > '9') {
			out = append(out, name)
		}
	}
	return out
}

var (
	testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	testName = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)(?:\*|(?:[A-Z0-9_]|\{[\w,]*\})(?:\w|\{[\w,]*\})*\*?)`)
	codeSpan = regexp.MustCompile("`[^`]+`")
)

// checkTestNames fails t for every test name that a backticked span of
// README.md, DESIGN.md or EXPERIMENTS.md in root cites and that no _test.go
// file under root defines. A trailing * names a prefix, and {A,B} stands
// for A and for B; fenced code blocks are not read.
func checkTestNames(t testing.TB, root string) {
	t.Helper()
	var defined []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case strings.HasSuffix(path, "_test.go"):
			for _, m := range testFunc.FindAllStringSubmatch(read(t, path), -1) {
				defined = append(defined, m[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		doc = filepath.Join(root, doc)
		for _, c := range citedTests(read(t, doc)) {
			for _, name := range expand(c.name) {
				if !definesTest(defined, name) {
					t.Errorf("%s:%d cites %s, which no _test.go defines", doc, c.line, name)
				}
			}
		}
	}
}

// citation is one test name a doc cites, and the line it is on.
type citation struct {
	line int
	name string
}

// citedTests returns the test names in doc's backticked spans, in order,
// outside fenced code blocks.
func citedTests(doc string) []citation {
	lines := strings.Split(doc, "\n")
	for i, fenced := 0, false; i < len(lines); i++ {
		if strings.HasPrefix(strings.TrimSpace(lines[i]), "```") {
			fenced = !fenced
			lines[i] = ""
		} else if fenced {
			lines[i] = ""
		}
	}
	doc = strings.Join(lines, "\n")
	var out []citation
	for _, span := range codeSpan.FindAllStringIndex(doc, -1) {
		line := strings.Count(doc[:span[0]], "\n") + 1
		for _, name := range testName.FindAllString(doc[span[0]:span[1]], -1) {
			out = append(out, citation{line, name})
		}
	}
	return out
}

// expand returns the names name stands for, each {A,B} replaced by A and by B.
func expand(name string) []string {
	open := strings.IndexByte(name, '{')
	if open < 0 {
		return []string{name}
	}
	end := open + strings.IndexByte(name[open:], '}')
	var out []string
	for _, alt := range strings.Split(name[open+1:end], ",") {
		out = append(out, expand(name[:open]+alt+name[end+1:])...)
	}
	return out
}

// definesTest reports whether defined holds name, or a name it is the
// prefix of when it ends in *.
func definesTest(defined []string, name string) bool {
	prefix, wild := strings.CutSuffix(name, "*")
	for _, d := range defined {
		if d == name || wild && strings.HasPrefix(d, prefix) {
			return true
		}
	}
	return false
}
