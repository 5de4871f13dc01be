package analysis

// Finding baselines. A baseline is a committed snapshot of the findings
// a tree is known to carry; CI diffs fresh findings against it and
// fails only on NEW ones, so an analyzer upgrade that surfaces existing
// debt ratchets instead of blocking. Keys deliberately exclude line and
// column: moving an acknowledged finding around a file must not
// resurrect it. Counts are tracked per key, so introducing a second
// instance of an already-baselined finding still fails.

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Baseline is a multiset of acknowledged findings keyed by
// check + file + message.
type Baseline struct {
	counts map[string]int
}

// baselineKey is the identity of a finding for baseline purposes. Line
// and column are excluded on purpose; node IDs are likewise volatile
// across workflow edits and excluded.
func baselineKey(f Finding) string {
	return f.Check + "\t" + f.File + "\t" + f.Message
}

// Len reports the number of acknowledged finding instances.
func (b *Baseline) Len() int {
	n := 0
	for _, c := range b.counts {
		n += c
	}
	return n
}

// Filter returns the findings not covered by the baseline, preserving
// input order. Each acknowledged instance absorbs at most one matching
// finding, so a key that occurs k times in the baseline and k+1 times
// in fs yields one survivor.
func (b *Baseline) Filter(fs []Finding) []Finding {
	budget := make(map[string]int, len(b.counts))
	for k, c := range b.counts {
		budget[k] = c
	}
	var out []Finding
	for _, f := range fs {
		k := baselineKey(f)
		if budget[k] > 0 {
			budget[k]--
			continue
		}
		out = append(out, f)
	}
	return out
}

// WriteBaseline writes the findings as a baseline file: a comment
// header, then one tab-separated record per distinct key —
// count, check, file, message — sorted by key so regeneration is
// byte-stable and diffs review cleanly.
func WriteBaseline(w io.Writer, fs []Finding) error {
	counts := map[string]int{}
	for _, f := range fs {
		counts[baselineKey(f)]++
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s baseline: acknowledged findings, one per line.\n", ToolName)
	fmt.Fprintf(bw, "# count<TAB>check<TAB>file<TAB>message — regenerate with -write-baseline.\n")
	for _, k := range keys {
		fmt.Fprintf(bw, "%d\t%s\n", counts[k], k)
	}
	return bw.Flush()
}

// ReadBaseline parses a baseline file written by WriteBaseline. Blank
// lines and #-comments are ignored; anything else must be a
// count-prefixed record.
func ReadBaseline(r io.Reader) (*Baseline, error) {
	b := &Baseline{counts: map[string]int{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.SplitN(line, "\t", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("baseline line %d: want count<TAB>key, got %q", lineNo, line)
		}
		n, err := strconv.Atoi(parts[0])
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("baseline line %d: bad count %q", lineNo, parts[0])
		}
		b.counts[parts[1]] += n
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b, nil
}
