package clidoc

import (
	"reflect"
	"testing"
)

func TestCommandsAndFlags(t *testing.T) {
	readme := "intro\n" +
		"$ go run ./cmd/tool -a 1 -bee=x   # a comment -not-a-flag\n" +
		"$ go run ./cmd/toolbox -c\n" +
		"$ go run ./cmd/tool -data d \\\n" +
		"      -cache -1 --long \\\n" +
		"      f.etl\n" +
		"    $ go run ./cmd/tool -indented\n" +
		"$ go run ./cmd/tool\n"
	got := commands(readme, "$ go run ./cmd/tool")
	want := []command{
		{line: 2, args: []string{"-a", "1", "-bee=x"}},
		{line: 4, args: []string{"-data", "d", "-cache", "-1", "--long", "f.etl"}},
		{line: 8, args: []string{}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("commands:\n  got  %+v\n  want %+v", got, want)
	}
	if flags := got[0].flags(); !reflect.DeepEqual(flags, []string{"a", "bee"}) {
		t.Errorf("flags of %v = %v", got[0].args, flags)
	}
	if flags := got[1].flags(); !reflect.DeepEqual(flags, []string{"data", "cache", "long"}) {
		t.Errorf("flags of %v = %v", got[1].args, flags)
	}
}

func TestSpans(t *testing.T) {
	doc := "intro `cmd/tool -a 1` and `tool -b`,\n" +
		"then `go run ./cmd/tool -c\n-d x` over two lines;\n" +
		"not `cmd/tool/main.go`, `toolbox -e`, `a tool -f` or `tool`.\n"
	got := spans(doc, "tool")
	want := []command{
		{line: 1, args: []string{"-a", "1"}},
		{line: 1, args: []string{"-b"}},
		{line: 2, args: []string{"-c", "-d", "x"}},
		{line: 4, args: []string{}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("spans:\n  got  %+v\n  want %+v", got, want)
	}
}
