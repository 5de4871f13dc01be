package share

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"etlopt/internal/data"
)

// intRows returns n single-int records; rowsBytes charges 40 bytes each
// (24 for the record header, 16 for the value), so budgets in the tests
// below are exact multiples of record counts.
func intRows(n int) data.Rows {
	rows := make(data.Rows, n)
	for i := range rows {
		rows[i] = data.Record{data.NewInt(int64(i))}
	}
	return rows
}

func TestRowsBytesEstimate(t *testing.T) {
	if got := rowsBytes(intRows(3)); got != 120 {
		t.Fatalf("rowsBytes(3 int records) = %d, want 120", got)
	}
	rows := data.Rows{{data.NewString("abcde"), data.NewInt(1)}}
	if got := rowsBytes(rows); got != 24+16+5+16 {
		t.Fatalf("rowsBytes(string record) = %d, want %d", got, 24+16+5+16)
	}
}

// get runs one GetOrCompute that serves intRows(1) and counts invocations.
func get(t *testing.T, c *cache, key string, computes *int) data.Rows {
	t.Helper()
	rows, _, err := c.GetOrCompute(key, data.Schema{"V"}, func() (data.Rows, error) {
		*computes++
		return intRows(1), nil
	})
	if err != nil {
		t.Fatalf("GetOrCompute(%s): %v", key, err)
	}
	return rows
}

func TestCacheLRUEvictsAtByteBoundary(t *testing.T) {
	// Budget 80 holds exactly two 40-byte entries: admission is only over
	// budget at the third, and the least recently used entry goes.
	c := newCache(80, "", nil)
	nA, nB, nC := 0, 0, 0
	get(t, c, "a", &nA)
	get(t, c, "b", &nB)
	get(t, c, "a", &nA) // memory hit; moves a ahead of b
	get(t, c, "c", &nC) // 120 > 80: evicts b, keeps a and c
	get(t, c, "c", &nC) // hit; moves c ahead of a
	get(t, c, "b", &nB) // recomputed; evicts the LRU tail (a)
	get(t, c, "a", &nA) // recomputed; evicts c

	if nA != 2 || nB != 2 || nC != 1 {
		t.Fatalf("compute counts a=%d b=%d c=%d, want 2/2/1", nA, nB, nC)
	}
	st := c.Stats()
	want := CacheStats{
		Lookups: 7, Hits: 2, Misses: 5,
		Admissions: 5, Evictions: 3,
		HitBytes: 80, AdmittedBytes: 200, EvictedBytes: 120,
	}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	if st.Hits > st.Lookups {
		t.Fatalf("integrity: hits %d > lookups %d", st.Hits, st.Lookups)
	}
	if st.EvictedBytes > st.AdmittedBytes {
		t.Fatalf("integrity: evicted bytes %d > admitted bytes %d", st.EvictedBytes, st.AdmittedBytes)
	}
}

func TestCacheBudgetOneUnderEvictsImmediately(t *testing.T) {
	// Budget 79 cannot hold two 40-byte entries: admitting b pushes a out,
	// proving the boundary is used > budget, not >=.
	c := newCache(79, "", nil)
	nA, nB := 0, 0
	get(t, c, "a", &nA)
	get(t, c, "b", &nB)
	get(t, c, "b", &nB) // b survived the eviction pass
	get(t, c, "a", &nA) // a did not
	if nA != 2 || nB != 1 {
		t.Fatalf("compute counts a=%d b=%d, want 2/1", nA, nB)
	}
}

func TestCacheZeroBudgetAdmitsThenEvicts(t *testing.T) {
	c := newCache(0, "", nil)
	n := 0
	get(t, c, "k", &n)
	get(t, c, "k", &n)
	if n != 2 {
		t.Fatalf("compute count = %d, want 2 (budget 0 keeps nothing)", n)
	}
	st := c.Stats()
	if st.Admissions != 2 || st.Evictions != 2 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 2 admissions, 2 evictions, 0 hits", st)
	}
}

func TestCacheUnboundedNeverEvicts(t *testing.T) {
	c := newCache(-1, "", nil)
	for i := 0; i < 50; i++ {
		n := 0
		get(t, c, fmt.Sprintf("k%d", i), &n)
	}
	if st := c.Stats(); st.Evictions != 0 || st.Admissions != 50 {
		t.Fatalf("stats = %+v, want 50 admissions and no evictions", st)
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := newCache(-1, "", nil)
	const waiters = 10
	var computes int32
	release := make(chan struct{})

	var wg sync.WaitGroup
	results := make([]data.Rows, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rows, _, err := c.GetOrCompute("k", data.Schema{"V"}, func() (data.Rows, error) {
				atomic.AddInt32(&computes, 1)
				<-release
				return intRows(2), nil
			})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			results[i] = rows
		}(i)
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := atomic.LoadInt32(&computes); n != 1 {
		t.Fatalf("compute ran %d times, want exactly 1", n)
	}
	for i, rows := range results {
		if len(rows) != 2 {
			t.Fatalf("waiter %d got %d rows, want 2", i, len(rows))
		}
	}
	st := c.Stats()
	if st.Lookups != waiters || st.Misses != 1 || st.Hits != waiters-1 {
		t.Fatalf("stats = %+v, want %d lookups, 1 miss, %d hits", st, waiters, waiters-1)
	}
}

func TestCacheSingleFlightErrorPropagates(t *testing.T) {
	c := newCache(-1, "", nil)
	n := 0
	_, _, err := c.GetOrCompute("k", data.Schema{"V"}, func() (data.Rows, error) {
		n++
		return nil, fmt.Errorf("boom")
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v, want boom", err)
	}
	// A failed flight leaves nothing behind; the next caller recomputes.
	get(t, c, "k", &n)
	if n != 2 {
		t.Fatalf("compute count = %d, want 2", n)
	}
}

func TestCacheSpillRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := newCache(0, dir, nil)
	schema := data.Schema{"I", "F", "S", "B", "D", "N"}
	orig := data.Rows{
		{data.NewInt(-7), data.NewFloat(2.5), data.NewString("héllo, \"world\""), data.NewBool(true), data.NewDate(2021, 3, 4), data.Null},
		{data.NewInt(42), data.NewFloat(-0.125), data.NewString("line"), data.NewBool(false), data.NewDate(1999, 12, 31), data.NewString("x")},
	}
	n := 0
	compute := func() (data.Rows, error) { n++; return orig, nil }

	rows, avoided, err := c.GetOrCompute("k", schema, compute)
	if err != nil || avoided {
		t.Fatalf("first get: rows=%d avoided=%v err=%v", len(rows), avoided, err)
	}
	// Budget 0 evicted the entry immediately; with a spill dir configured it
	// must now live on disk and stay addressable.
	if st := c.Stats(); st.Spills != 1 || st.SpilledBytes == 0 {
		t.Fatalf("stats after first get = %+v, want one spill", st)
	}
	files, err := os.ReadDir(dir)
	if err != nil || len(files) != 1 {
		t.Fatalf("spill dir has %d files (err %v), want 1", len(files), err)
	}

	rows2, avoided, err := c.GetOrCompute("k", schema, compute)
	if err != nil || !avoided {
		t.Fatalf("second get: avoided=%v err=%v", avoided, err)
	}
	if n != 1 {
		t.Fatalf("compute ran %d times, want 1 (spill load must not recompute)", n)
	}
	// The typed digest must survive the disk trip bit-for-bit.
	if orig.Digest() != rows2.Digest() {
		t.Fatalf("spill round-trip changed rows:\n  orig %v\n  got  %v", orig, rows2)
	}

	// The re-admitted entry was evicted again (budget 0) but keeps its
	// existing spill file instead of rewriting it.
	if _, _, err := c.GetOrCompute("k", schema, compute); err != nil {
		t.Fatalf("third get: %v", err)
	}
	st := c.Stats()
	if st.Spills != 1 || st.SpillLoads != 2 || st.Hits != 2 {
		t.Fatalf("stats after third get = %+v, want 1 spill, 2 spill loads, 2 hits", st)
	}
}

func TestSpillRoundTripDirect(t *testing.T) {
	dir := t.TempDir()
	schema := data.Schema{"A", "B"}
	rows := data.Rows{
		{data.NewString("comma, quote \" and\nnewline"), data.NewInt(1)},
		{data.Null, data.NewFloat(3.5)},
	}
	path, err := writeSpill(dir, "deadbeef", schema, rows)
	if err != nil {
		t.Fatalf("writeSpill: %v", err)
	}
	got, err := readSpill(path, schema)
	if err != nil {
		t.Fatalf("readSpill: %v", err)
	}
	if rows.Digest() != got.Digest() {
		t.Fatalf("round trip changed rows: %v vs %v", rows, got)
	}
	if _, err := readSpill(path, data.Schema{"A", "WRONG"}); err == nil {
		t.Fatal("readSpill accepted a mismatched schema header")
	}
}

// TestReadSpillDamage covers what a spill file can look like on disk: a
// file of no rows is an empty result; an empty or missing file, a file cut
// short or with one byte flipped anywhere, another format version, another
// schema and bytes after the end are each refused whole, by a typed error
// that names the file.
func TestReadSpillDamage(t *testing.T) {
	schema := data.Schema{"A", "B"}
	write := func(content []byte) string {
		path := filepath.Join(t.TempDir(), "k.rows")
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spill := func(schema data.Schema, rows data.Rows) []byte {
		path, err := writeSpill(t.TempDir(), "k", schema, rows)
		if err != nil {
			t.Fatal(err)
		}
		content, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return content
	}
	refused := func(what string, content []byte) {
		t.Helper()
		path := write(content)
		rows, err := readSpill(path, schema)
		var damage *data.RowFileError
		if !errors.As(err, &damage) || damage.Path != path || rows != nil {
			t.Errorf("%s: %d rows, error %v; want no rows and a *data.RowFileError naming %s", what, len(rows), err, path)
		}
	}

	if rows, err := readSpill(write(spill(schema, nil)), schema); err != nil || len(rows) != 0 {
		t.Errorf("spill of no rows = %d rows, %v; want none, nil", len(rows), err)
	}
	refused("empty file", nil)
	_, err := readSpill(filepath.Join(t.TempDir(), "absent.rows"), schema)
	var pe *fs.PathError
	if !errors.Is(err, fs.ErrNotExist) || !errors.As(err, &pe) {
		t.Errorf("missing spill = %v, want the open's not-exist *fs.PathError", err)
	}

	valid := spill(schema, data.Rows{
		{data.NewString("007"), data.NewInt(1)},
		{data.Null, data.NewFloat(3.5)},
	})
	if rows, err := readSpill(write(valid), schema); err != nil || len(rows) != 2 {
		t.Fatalf("the undamaged file = %d rows, %v", len(rows), err)
	}
	for n := range valid {
		refused(fmt.Sprintf("cut at byte %d", n), valid[:n])
		flipped := bytes.Clone(valid)
		flipped[n] ^= 0x01
		refused(fmt.Sprintf("byte %d flipped", n), flipped)
	}
	refused("trailing garbage", append(bytes.Clone(valid), "\n3,4\n"...))
	refused("another schema", spill(data.Schema{"A", "WRONG"}, nil))
	// The version is the byte after the four of the magic; the checksum that
	// follows the body is brought up to date so that the version alone is wrong.
	versioned := bytes.Clone(valid[:len(valid)-4])
	versioned[4]++
	refused("another version", binary.LittleEndian.AppendUint32(versioned, crc32.ChecksumIEEE(versioned)))
}

// TestSpillKeepsKinds: what is read back from a spill file has the kinds
// and payload bits that were written. As CSV, the first six strings came
// back as an integer, a NULL, a NULL, a boolean and a date, the whole floats
// as integers.
func TestSpillKeepsKinds(t *testing.T) {
	schema := data.Schema{"V"}
	var rows data.Rows
	for _, v := range []data.Value{
		data.NewString("007"), data.NewString("NULL"), data.NewString(""), data.NewString("true"),
		data.NewString("2024-01-02"), data.NewFloat(2), data.NewFloat(math.Copysign(0, -1)),
		data.NewFloat(math.NaN()), data.NewFloat(math.Inf(1)), data.NewFloat(math.Inf(-1)),
		data.NewInt(math.MinInt64), data.NewString("a,b \"c\"\nd\x1fe"), data.Null,
		data.NewBool(true), data.NewDate(2024, 1, 2),
	} {
		rows = append(rows, data.Record{v})
	}
	path, err := writeSpill(t.TempDir(), "kinds", schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readSpill(path, schema)
	if err != nil || len(got) != len(rows) {
		t.Fatalf("read back %d of %d rows, %v", len(got), len(rows), err)
	}
	for i := range rows {
		if w, g := rows[i][0], got[i][0]; w.Kind() != g.Kind() {
			t.Errorf("value %d: wrote %s %q, read %s %q", i, w.Kind(), w, g.Kind(), g)
		}
	}
	if rows.Digest() != got.Digest() {
		t.Error("the rows read do not digest as the rows written")
	}
}
