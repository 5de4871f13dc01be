package etl_test

import (
	"context"
	"reflect"
	"testing"

	"etlopt/internal/generator"
	"etlopt/pkg/etl"
)

// TestRunSuiteFacade exercises the public suite surface end to end: a
// shared-prefix suite run through RunSuite must reproduce each member's
// individual Run bit-for-bit, while the journal and metrics record shared
// cache activity.
func TestRunSuiteFacade(t *testing.T) {
	scs, err := generator.SharedSuite(generator.Small, 2, 2026)
	if err != nil {
		t.Fatal(err)
	}
	wfs := make([]etl.SuiteWorkflow, len(scs))
	solos := make([]*etl.RunResult, len(scs))
	for i, sc := range scs {
		wfs[i] = etl.SuiteWorkflow{Graph: sc.Graph, Bindings: sc.Bind()}
		solos[i], err = etl.Run(context.Background(), sc.Graph, sc.Bind())
		if err != nil {
			t.Fatal(err)
		}
	}

	reg := etl.NewMetricsRegistry()
	res, err := etl.RunSuite(context.Background(), wfs,
		etl.WithSuiteWorkers(2),
		etl.WithSharedCache(1<<20),
		etl.WithSharedSpill(t.TempDir()),
		etl.WithPartitions(2),
		etl.WithMetrics(reg),
	)
	if err != nil {
		t.Fatal(err)
	}
	for i, wr := range res.Workflows {
		if wr.Err != nil {
			t.Fatalf("workflow %d: %v", i, wr.Err)
		}
		// Row for row and value for value: reflect.DeepEqual would compare
		// a string value's address, not its bytes.
		got, want := wr.Result.Targets, solos[i].Targets
		if len(got) != len(want) {
			t.Fatalf("workflow %d: suite loads %d targets, solo run %d", i, len(got), len(want))
		}
		for name, rows := range want {
			if g, ok := got[name]; !ok || len(g) != len(rows) || g.Digest() != rows.Digest() {
				t.Fatalf("workflow %d: suite target %s (%d rows) differs from solo run (%d rows)", i, name, len(got[name]), len(rows))
			}
		}
		if !reflect.DeepEqual(wr.Result.NodeRows, solos[i].NodeRows) {
			t.Fatalf("workflow %d: suite NodeRows differ from solo run", i)
		}
	}
	if res.Stats.Cache.Lookups == 0 {
		t.Fatal("suite run recorded no cache lookups")
	}
	snap := reg.Snapshot()
	found := false
	for _, c := range snap.Counters {
		if c.Series == "shared_cache_lookups_total" && c.Value > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("metrics registry missing shared_cache_lookups_total")
	}
}
