package engine

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"etlopt/internal/algebra"
	"etlopt/internal/data"
	"etlopt/internal/templates"
)

// TestRunCancelled verifies the node driver at P ∈ {1, 4}, and the checkpoint
// runner over the node driver, abort with an error that wraps ctx.Err()
// and says where the run stopped and after how many rows, when the context
// is cancelled before the run starts — and leave no goroutine behind.
func TestRunCancelled(t *testing.T) {
	sc := templates.Fig1Scenario(80, 240)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		name       string
		p          int
		checkpoint bool
	}{
		{"materialized", 1, false}, {"parallel", 4, false}, {"checkpoint", 4, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := New(sc.Bind(), WithPartitions(c.p))
			run := e.Run
			if c.checkpoint {
				cr := NewCheckpointRunner(e, t.TempDir())
				run = cr.Run
			}
			before := runtime.NumGoroutine()
			res, err := run(ctx, sc.Graph)
			if after := settled(before); after > before {
				t.Errorf("%d goroutines before the run, %d after it was cancelled", before, after)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if msg := err.Error(); !strings.Contains(msg, "node") || !strings.Contains(msg, "rows") {
				t.Errorf("cancellation error names neither node nor rows: %q", msg)
			}
			if res != nil {
				t.Error("cancelled run should not return a result")
			}
		})
	}
}

// TestCheckpointRunCancelled verifies the checkpoint runner treats
// cancellation like a crash: the error is ctx.Err(), the staging area
// survives, and a fresh run resumes and completes.
func TestCheckpointRunCancelled(t *testing.T) {
	sc := templates.Fig1Scenario(50, 150)
	dir := t.TempDir()
	cr := NewCheckpointRunner(New(sc.Bind()), dir)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cr.Run(ctx, sc.Graph); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Resume with a live context must succeed.
	res, err := cr.Run(context.Background(), sc.Graph)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := New(sc.Bind()).Run(context.Background(), sc.Graph)
	if err != nil {
		t.Fatal(err)
	}
	for name, rows := range plain.Targets {
		if len(res.Targets[name]) != len(rows) {
			t.Errorf("target %s: resumed run loaded %d rows, direct run %d",
				name, len(res.Targets[name]), len(rows))
		}
	}
}

// cancelProbe is what the registered test function "cancelprobe" calls
// when it sees key 100 001 (whose V1 is not NULL): the running test's cancel function.
var cancelProbe atomic.Pointer[context.CancelFunc]

func init() {
	algebra.MustRegisterFunc("cancelprobe", 1, func(args []data.Value) (data.Value, error) {
		if cancel := cancelProbe.Load(); cancel != nil && args[0].Int() == 100_001 {
			(*cancel)()
		}
		return args[0], nil
	})
}

// TestCancelledMidStage cancels the context from inside a fused stage,
// halfway through a 200 000-row source: the stage stops at its next batch
// boundary with an error that wraps context.Canceled and names node,
// partition and rows so far, and no partition worker outlives the run.
func TestCancelledMidStage(t *testing.T) {
	const n = 200_000
	g, ids := chainGraph(t, measureSchema,
		templates.NotNull(0.9, "V1"), templates.Convert("cancelprobe", "P", "KEY"), templates.Threshold("V1", 10, 0.9))
	bindings := bindMeasures(n)()
	for _, p := range []int{1, 4} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		cancelProbe.Store(&cancel)
		res, err := New(bindings, WithPartitions(p)).Run(ctx, g)
		cancelProbe.Store(nil)
		cancel()
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("P=%d: result %v, err = %v; want no result and context.Canceled", p, res != nil, err)
		}
		last := g.Node(ids[len(ids)-1]).Label()
		for _, want := range []string{"cancelled at node", last, "partition", "rows"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("P=%d: cancellation error %q does not say %q", p, err, want)
			}
		}
		if after := settled(before); after > before {
			t.Errorf("P=%d: %d goroutines before the run, %d after it was cancelled", p, before, after)
		}
	}
}
