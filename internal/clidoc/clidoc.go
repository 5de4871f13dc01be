// Package clidoc holds the command lines README.md shows to the flags each
// command defines, so README never advertises a flag that is gone. Each
// command's tests call Check.
package clidoc

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// Check fails t for every -flag a `$ go run ./cmd/<tool> …` line of the
// README at path passes that the tool's usage does not list. usage returns
// the -h output the command's arguments are checked against (etlvet's
// depends on its subcommand, the first argument). A README that shows the
// tool no command fails too.
func Check(t testing.TB, path, tool string, usage func(args []string) []byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cmds := commands(string(raw), "$ go run ./cmd/"+tool)
	if len(cmds) == 0 {
		t.Fatalf("%s shows no %s command", path, tool)
	}
	for _, c := range cmds {
		help := usage(c.args)
		for _, name := range c.flags() {
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
