//go:build linux || darwin

package share

import (
	"errors"
	"io/fs"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestSlotConcurrentSpillLoadsShare: readers of a spilled stage that arrive
// while it is being loaded wait for that load: eight readers, one spill
// load, eight hits. The spill file is swapped for a FIFO, so the first
// reader's load blocks in its open until every reader has looked the stage
// up and the test writes the file's bytes.
func TestSlotConcurrentSpillLoadsShare(t *testing.T) {
	const readers = 8
	r, sts := slotRunner(0, t.TempDir(), readers, "a")
	st := sts[0]
	fill(r, st, intRows(3))
	path := st.path
	content, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Mkfifo(path, 0o600); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rows, err := r.read(st); err != nil || len(rows) != 3 {
				t.Errorf("read %d rows, %v; want 3", len(rows), err)
			}
		}()
	}
	for looked := int64(0); looked < readers; time.Sleep(time.Millisecond) {
		r.mu.Lock()
		looked = r.stats.Lookups
		r.mu.Unlock()
	}
	if err := os.WriteFile(path, content, 0o600); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("readers still wait after a minute: each opened the spill file on its own")
	}
	if st := r.stats; st.SpillLoads != 1 || st.Hits != readers || st.HitBytes != readers*120 {
		t.Errorf("stats %+v: want 1 spill load and %d hits of 120 bytes", st, readers)
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("the last planned read left the spill file: %v", err)
	}
}
