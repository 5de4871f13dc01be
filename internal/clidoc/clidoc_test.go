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

func TestCitedTests(t *testing.T) {
	doc := "see `TestA` and `go test -run 'TestB|FuzzC$' ./x`,\n" +
		"`TestD*` and `Benchmark{E,F}G`; not Testing, `Tests`, `TestFile` in\n" +
		"```\nTestFenced `TestFenced`\n```\n" +
		"nor `Testing`, but `Test*`.\n"
	got := citedTests(doc)
	want := []citation{{1, "TestA"}, {1, "TestB"}, {1, "FuzzC"}, {2, "TestD*"}, {2, "Benchmark{E,F}G"}, {2, "TestFile"}, {6, "Test*"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("citedTests:\n  got  %+v\n  want %+v", got, want)
	}
	if got := expand("Benchmark{E,F}G{1,2}"); !reflect.DeepEqual(got, []string{"BenchmarkEG1", "BenchmarkEG2", "BenchmarkFG1", "BenchmarkFG2"}) {
		t.Errorf("expand = %v", got)
	}
	defined := []string{"TestA", "TestDeep"}
	for name, want := range map[string]bool{"TestA": true, "TestD*": true, "TestD": false, "TestA*": true, "TestB*": false} {
		if definesTest(defined, name) != want {
			t.Errorf("definesTest(%v, %s) = %v, want %v", defined, name, !want, want)
		}
	}
}

// TestDocsCiteOnlyTestsThatExist: every test the docs name in a code span
// is one some _test.go of the repository defines.
func TestDocsCiteOnlyTestsThatExist(t *testing.T) {
	checkTestNames(t, "../..")
}
