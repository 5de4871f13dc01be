package engine

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"etlopt/internal/data"
	"etlopt/internal/fault"
	"etlopt/internal/templates"
	"etlopt/internal/workflow"
)

// The tests below pin the driver's source rule: the run's reader goroutine
// scans the sources in plan order through Recordset.Scan, exactly one ahead
// of the driver, and a scan's outcome — rows or error — belongs to the
// source's own stage.

// probes is the state the recordset doubles of one fixture share.
type probes struct {
	mu       sync.Mutex
	scans    map[string]int  // Scan calls begun, per source
	loaded   map[string]bool // targets whose Load has returned
	inFlight int             // Scan calls running now
	broken   []string        // invariant violations seen from inside Scan
	// onScan and onLoad, when set, run inside the call (outside the lock)
	// with the recordset's name; onScan's error is the Scan's.
	onScan func(name string) error
	onLoad func(name string)
}

// probe is a source or target double over a memory recordset.
type probe struct {
	data.Recordset
	ps *probes
	// before names the target that must have loaded by the time this
	// source's Scan begins ("" for none): the one-ahead invariant as seen
	// from a recordset.
	before string
}

func (p probe) Scan() (data.Rows, error) {
	ps := p.ps
	ps.mu.Lock()
	ps.scans[p.Name()]++
	if ps.inFlight++; ps.inFlight > 1 {
		ps.broken = append(ps.broken, fmt.Sprintf("%s scanned while another Scan is running", p.Name()))
	}
	if p.before != "" && !ps.loaded[p.before] {
		ps.broken = append(ps.broken, fmt.Sprintf("%s scanned before %s loaded: more than one source ahead", p.Name(), p.before))
	}
	hook := ps.onScan
	ps.mu.Unlock()
	defer func() {
		ps.mu.Lock()
		ps.inFlight--
		ps.mu.Unlock()
	}()
	if hook != nil {
		if err := hook(p.Name()); err != nil {
			return nil, err
		}
	}
	return p.Recordset.Scan()
}

func (p probe) Load(rows data.Rows) error {
	if hook := p.ps.onLoad; hook != nil {
		hook(p.Name())
	}
	err := p.Recordset.Load(rows)
	p.ps.mu.Lock()
	p.ps.loaded[p.Name()] = true
	p.ps.mu.Unlock()
	return err
}

func (ps *probes) scanCounts() map[string]int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	counts := make(map[string]int, len(ps.scans))
	for name, n := range ps.scans {
		counts[name] = n
	}
	return counts
}

// branchFixture is k independent branches SRCi → notnull(V1) → TGTi of n
// rows each. The sources take the lowest IDs, so a driver that scanned in
// ID order would hold all k before the first activity ran; placed at their
// first readers the plan is SRC0 nn0 TGT0 SRC1 nn1 TGT1 …, and the reader
// may begin SRCi only once SRCi-1 was taken — after TGTi-2 loaded.
func branchFixture(t testing.TB, k, n int) (*workflow.Graph, func() (map[string]data.Recordset, *probes)) {
	t.Helper()
	g := workflow.NewGraph()
	srcs := make([]workflow.NodeID, k)
	for i := range srcs {
		srcs[i] = g.AddRecordset(&workflow.RecordsetRef{Name: fmt.Sprintf("SRC%d", i), Schema: measureSchema, Rows: float64(n), IsSource: true})
	}
	for i, src := range srcs {
		nn := g.AddActivity(templates.NotNull(0.9, "V1"))
		tgt := g.AddRecordset(&workflow.RecordsetRef{Name: fmt.Sprintf("TGT%d", i), Schema: measureSchema, IsTarget: true})
		g.MustAddEdge(src, nn)
		g.MustAddEdge(nn, tgt)
	}
	if err := g.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}
	bind := func() (map[string]data.Recordset, *probes) {
		ps := &probes{scans: map[string]int{}, loaded: map[string]bool{}}
		b := map[string]data.Recordset{}
		for i := 0; i < k; i++ {
			src, tgt := fmt.Sprintf("SRC%d", i), fmt.Sprintf("TGT%d", i)
			before := ""
			if i >= 2 {
				before = fmt.Sprintf("TGT%d", i-2)
			}
			b[src] = probe{data.NewMemoryRecordset(src, measureSchema).MustLoad(measureRows(n + i)), ps, before}
			b[tgt] = probe{data.NewMemoryRecordset(tgt, measureSchema), ps, ""}
		}
		return b, ps
	}
	return g, bind
}

// within fails the test if f has not returned after d: a lost or stolen
// hand-over is a hang, not a wrong answer.
func within(t *testing.T, d time.Duration, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		buf := make([]byte, 1<<16)
		t.Fatalf("still running after %v:\n%s", d, buf[:runtime.Stack(buf, true)])
	}
}

// settled waits for the goroutine count to fall back to before.
func settled(before int) int {
	for wait := 0; runtime.NumGoroutine() > before && wait < 400; wait++ {
		time.Sleep(5 * time.Millisecond)
	}
	return runtime.NumGoroutine()
}

func TestSourcesScannedOnceAndOneAhead(t *testing.T) {
	g, bind := branchFixture(t, 6, 500)
	for _, p := range []int{1, 4} {
		b, ps := bind()
		var res *RunResult
		var err error
		within(t, time.Minute, func() {
			res, err = New(b, WithMode(Parallel), WithPartitions(p)).Run(context.Background(), g)
		})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		for i := 0; i < 6; i++ {
			src, tgt := fmt.Sprintf("SRC%d", i), fmt.Sprintf("TGT%d", i)
			if n := ps.scans[src]; n != 1 {
				t.Errorf("P=%d: %s scanned %d times in a clean run, want 1", p, src, n)
			}
			want := 0
			for _, r := range measureRows(500 + i) {
				if !r[1].IsNull() {
					want++
				}
			}
			if got := len(res.Targets[tgt]); got != want {
				t.Errorf("P=%d: %s holds %d rows, want %d: a source went to another's reader", p, tgt, got, want)
			}
		}
		for _, msg := range ps.broken {
			t.Errorf("P=%d: %s", p, msg)
		}
	}
}

// A failed scan is its own node's failure: the stages before it have run
// and loaded, nothing after it has, and the error is scanSource's.
func TestScanErrorSurfacesAtItsNode(t *testing.T) {
	g, bind := branchFixture(t, 4, 200)
	b, ps := bind()
	ps.onScan = func(name string) error {
		if name == "SRC2" {
			return errors.New("disk on fire")
		}
		return nil
	}
	var err error
	within(t, time.Minute, func() { _, err = New(b).Run(context.Background(), g) })
	if err == nil || !strings.Contains(err.Error(), "engine: scanning SRC2: disk on fire") {
		t.Fatalf("err = %v, want engine: scanning SRC2: disk on fire", err)
	}
	if !ps.loaded["TGT0"] || !ps.loaded["TGT1"] {
		t.Errorf("loaded = %v: the branches before the failed source must have completed", ps.loaded)
	}
	if ps.loaded["TGT2"] || ps.loaded["TGT3"] {
		t.Errorf("loaded = %v: nothing at or after the failed source may have loaded", ps.loaded)
	}
}

// transientOnce is a scan error the retry policy takes for retryable.
type transientOnce struct{ error }

func (transientOnce) Transient() bool { return true }

// A source stage is retried like any other. Retried for an injected fault
// at its node start or emit, it keeps the rows it was handed: no second
// Scan, and the next source's hand-over stays the next source's. Retried
// because its own scan failed, it scans again itself.
func TestRetriedSourceKeepsItsHandOver(t *testing.T) {
	g, bind := branchFixture(t, 4, 300)
	cb, _ := bind()
	clean, err := New(cb).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 4} {
		for _, failScan := range []bool{false, true} {
			b, ps := bind()
			failed := false
			if failScan {
				ps.onScan = func(name string) error {
					if name == "SRC1" && !failed {
						failed = true
						return transientOnce{errors.New("try again")}
					}
					return nil
				}
			}
			plan := fault.NewPlan(3, 1.0, fault.WithSites(fault.SiteNodeStart, fault.SiteEmit))
			var res *RunResult
			within(t, time.Minute, func() {
				res, err = New(b, WithMode(Parallel), WithPartitions(p), WithFaultPlan(plan),
					WithRetry(fault.Policy{MaxAttempts: 8, Seed: 1})).Run(context.Background(), g)
			})
			if err != nil {
				t.Fatalf("P=%d failScan=%v: run failed despite retries: %v", p, failScan, err)
			}
			if plan.Injected() == 0 {
				t.Fatalf("P=%d: the rate-1 plan fired no fault", p)
			}
			for i := 0; i < 4; i++ {
				src, tgt := fmt.Sprintf("SRC%d", i), fmt.Sprintf("TGT%d", i)
				want := 1
				if failScan && i == 1 {
					want = 2
				}
				if n := ps.scans[src]; n != want {
					t.Errorf("P=%d failScan=%v: %s scanned %d times, want %d", p, failScan, src, n, want)
				}
				if res.Targets[tgt].Digest() != clean.Targets[tgt].Digest() {
					t.Errorf("P=%d failScan=%v: %s differs from the clean run", p, failScan, tgt)
				}
			}
		}
	}
}

// Cancellation reaches the reader wherever it is: inside a Scan (which it
// finishes, then gives up the hand-over) or blocked handing a finished
// scan to a driver that is still busy. Either way Run returns an error
// wrapping context.Canceled only once the reader has exited.
func TestCancelReachesTheReader(t *testing.T) {
	g, bind := branchFixture(t, 3, 200)
	for _, p := range []int{1, 4} {
		for _, at := range []string{"mid-scan", "hand-over"} {
			before := runtime.NumGoroutine()
			b, ps := bind()
			ctx, cancel := context.WithCancel(context.Background())
			reached, release := make(chan struct{}), make(chan struct{})
			if at == "mid-scan" {
				// SRC1's Scan stops inside the call until released.
				ps.onScan = func(name string) error {
					if name == "SRC1" {
						close(reached)
						<-release
					}
					return nil
				}
			} else {
				// TGT0's Load holds the driver; by the time SRC2 would be
				// scanned SRC1 must have been taken, so SRC1 is finished
				// and waiting when the Load is reached... and stays there.
				scanned1 := make(chan struct{})
				ps.onScan = func(name string) error {
					if name == "SRC1" {
						defer close(scanned1)
					}
					return nil
				}
				ps.onLoad = func(name string) {
					if name == "TGT0" {
						<-scanned1
						close(reached)
						<-release
					}
				}
			}
			var err error
			within(t, time.Minute, func() {
				go func() {
					<-reached
					cancel()
					close(release)
				}()
				_, err = New(b, WithMode(Parallel), WithPartitions(p)).Run(ctx, g)
			})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("P=%d %s: err = %v, want context.Canceled", p, at, err)
			}
			if n := ps.scans["SRC2"]; n != 0 {
				t.Errorf("P=%d %s: SRC2 scanned %d times after the run was cancelled", p, at, n)
			}
			if after := settled(before); after > before {
				t.Errorf("P=%d %s: %d goroutines before the run, %d after it was cancelled", p, at, before, after)
			}
		}
	}
}

// Under a checkpoint a source with a stage file is the driver's to restore
// and is not scanned at all; the others are read ahead as ever.
func TestCheckpointResumeScansOnlyUnstagedSources(t *testing.T) {
	g, bind := branchFixture(t, 6, 200)
	b, ps := bind()
	healthy := false
	ps.onScan = func(name string) error {
		if name == "SRC3" && !healthy {
			return errors.New("disk on fire")
		}
		return nil
	}
	cr, err := NewCheckpointRunner(New(b), filepath.Join(t.TempDir(), "stage"))
	if err != nil {
		t.Fatal(err)
	}
	within(t, time.Minute, func() { _, err = cr.Run(context.Background(), g) })
	if err == nil || !strings.Contains(err.Error(), "scanning SRC3") {
		t.Fatalf("first run: err = %v, want SRC3's scan error", err)
	}
	first := ps.scanCounts()
	healthy = true
	var res *RunResult
	within(t, time.Minute, func() { res, err = cr.Run(context.Background(), g) })
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	second := ps.scanCounts()
	for i := 0; i < 6; i++ {
		src := fmt.Sprintf("SRC%d", i)
		want := 0 // staged by the first run
		if i >= 3 {
			want = 1
		}
		if got := second[src] - first[src]; got != want {
			t.Errorf("resume scanned %s %d times, want %d", src, got, want)
		}
	}
	cb, _ := bind()
	clean, err := New(cb).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if err := SameRun(clean, res); err != nil {
		t.Errorf("resumed run differs from a clean run: %v", err)
	}
}
