package engine

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"

	"etlopt/internal/obs"
	"etlopt/internal/templates"
)

// TestPartitionsAreTheOneSetting pins the engine's one parallelism
// setting: New(b) runs one partition, WithPartitions(n) n partitions with
// no other option, and a count of 0 or less GOMAXPROCS. The count is read
// from the run itself: its per-partition batch events and its run name.
func TestPartitionsAreTheOneSetting(t *testing.T) {
	sc := templates.Fig1Scenario(60, 180)
	for _, c := range []struct {
		name string
		opts []Option
		want int
	}{
		{"default", nil, 1},
		{"four", []Option{WithPartitions(4)}, 4},
		{"zero", []Option{WithPartitions(0)}, runtime.GOMAXPROCS(0)},
		{"negative", []Option{WithPartitions(-3)}, runtime.GOMAXPROCS(0)},
	} {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			j := obs.NewJournal(&buf, nil)
			if _, err := New(sc.Bind(), append(c.opts, WithJournal(j))...).Run(context.Background(), sc.Graph); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			evs, err := obs.ReadJournal(&buf)
			if err != nil {
				t.Fatal(err)
			}
			parts := map[int]bool{}
			var runs []string
			for _, e := range evs {
				switch e.T {
				case obs.EventBatch:
					parts[e.Part] = true
				case obs.EventRun:
					runs = append(runs, e.Detail)
				}
			}
			if len(parts) != c.want {
				t.Errorf("batch events name %d partitions, want %d", len(parts), c.want)
			}
			if run := fmt.Sprintf("engine/p%d", c.want); len(runs) != 2 || runs[0] != run || runs[1] != run {
				t.Errorf("run events %q, want start and end of %s", runs, run)
			}
		})
	}
}

// TestDeprecatedModeAdapter pins the old mode names onto partition counts:
// Materialized is one partition, Parallel GOMAXPROCS, and a partition
// count given after Parallel wins, as in WithMode(Parallel),
// WithPartitions(P).
func TestDeprecatedModeAdapter(t *testing.T) {
	for _, c := range []struct {
		opts []Option
		want int
	}{
		{[]Option{WithMode(Materialized)}, 1},
		{[]Option{WithMode(Parallel)}, runtime.GOMAXPROCS(0)},
		{[]Option{WithMode(Parallel), WithPartitions(3)}, 3},
	} {
		if got := New(nil, c.opts...).partitionCount(); got != c.want {
			t.Errorf("%d options: %d partitions, want %d", len(c.opts), got, c.want)
		}
	}
}
