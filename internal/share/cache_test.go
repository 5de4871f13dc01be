package share

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"testing"
	"unsafe"

	"etlopt/internal/data"
	"etlopt/internal/dsl"
	"etlopt/internal/engine"
	"etlopt/internal/generator"
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

// slotRunner returns a runner over one stage of one int column per key,
// each planned to be read by readers runs, at the budget, spilling into
// spillDir.
func slotRunner(budget int64, spillDir string, readers int, keys ...string) (*runner, []*stage) {
	p := &plan{stages: make(map[int]*stage)}
	var sts []*stage
	for i := range keys {
		st := &stage{slot: slot{done: make(chan struct{}), readers: readers}, class: i + 1, schema: data.Schema{"V"}}
		p.stages[st.class] = st
		sts = append(sts, st)
	}
	return newRunner(p, Options{CacheBytes: budget}, spillDir), sts
}

// fill admits rows as st's producer run does, and spills them if they do
// not fit.
func fill(r *runner, st *stage, rows data.Rows) {
	f := &flight{done: st.done, rows: rows, bytes: rowsBytes(rows)}
	if r.admit(st, f) {
		r.spill(st, f)
	}
}

// TestSlotAdmissionBoundary: a stage stays resident if it fits beside the
// resident ones — 80 bytes hold two 40-byte stages, 79 hold one — and one
// that does not fit is spilled as it is admitted: a resident stage is never
// evicted for a newcomer.
func TestSlotAdmissionBoundary(t *testing.T) {
	for _, c := range []struct {
		budget   int64
		resident int
	}{{80, 2}, {79, 1}} {
		r, sts := slotRunner(c.budget, t.TempDir(), 1, "a", "b", "c")
		for _, st := range sts {
			fill(r, st, intRows(1))
		}
		for i, st := range sts {
			if got, want := st.rows != nil, i < c.resident; got != want || (st.path == "") != want {
				t.Errorf("budget %d: stage %d resident %v, file %q; want resident %v, else spilled", c.budget, st.class, got, st.path, want)
			}
		}
		evicted := int64(len(sts) - c.resident)
		want := CacheStats{Admissions: 3, AdmittedBytes: 120, Evictions: evicted, EvictedBytes: 40 * evicted, Spills: evicted, SpilledBytes: 40 * evicted}
		if r.stats != want || r.used != 40*int64(c.resident) {
			t.Errorf("budget %d: stats %+v, %d bytes used; want %+v, %d", c.budget, r.stats, r.used, want, 40*c.resident)
		}
	}
}

// TestSlotBudgets: at budget 0 with no spill directory given, the one
// stage of codeSuite is spilled under os.TempDir() and each member loads
// it back, and the suite leaves nothing there; an unbounded budget never
// evicts. Either way the stage's producer runs once.
func TestSlotBudgets(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	for _, c := range []struct {
		budget int64
		want   CacheStats
	}{
		{0, CacheStats{Lookups: 3, Hits: 2, Misses: 1, Admissions: 1, Evictions: 1, Spills: 1, SpillLoads: 2}},
		{-1, CacheStats{Lookups: 3, Hits: 2, Misses: 1, Admissions: 1}},
	} {
		res, err := RunSuite(context.Background(), codeSuite(t), Options{Workers: 1, CacheBytes: c.budget})
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		st.Cache.HitBytes, st.Cache.AdmittedBytes, st.Cache.EvictedBytes, st.Cache.SpilledBytes = 0, 0, 0, 0
		if st.StageRuns != 1 || st.Cache != c.want {
			t.Errorf("budget %d: %d stage runs, %+v; want 1, %+v", c.budget, st.StageRuns, st.Cache, c.want)
		}
		if left, _ := os.ReadDir(tmp); len(left) != 0 {
			t.Errorf("budget %d: the suite left %d entries in TMPDIR, first %s", c.budget, len(left), left[0].Name())
		}
	}
	scs, err := generator.SharedSuite(generator.Small, 3, 99)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSuite(context.Background(), suiteWorkflows(scs), Options{Workers: 4, CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Stats; st.Cache.Evictions != 0 || st.StageRuns != int64(st.Stages) {
		t.Errorf("unbounded: %d evictions, %d stage runs for %d stages", st.Cache.Evictions, st.StageRuns, st.Stages)
	}
}

// TestSlotSpillLoadIsAHit: a stage evicted at admission is spilled; each
// read loads it back, a hit and no admission, so it stays on disk and off
// the budget until the last planned read removes the file.
func TestSlotSpillLoadIsAHit(t *testing.T) {
	r, sts := slotRunner(0, t.TempDir(), 2, "a")
	st := sts[0]
	fill(r, st, intRows(2))
	want := CacheStats{Admissions: 1, AdmittedBytes: 80, Evictions: 1, EvictedBytes: 80, Spills: 1, SpilledBytes: 80}
	path := st.path
	if r.stats != want || st.rows != nil || path == "" {
		t.Fatalf("admitted: stats %+v, resident %v, file %q; want %+v, spilled", r.stats, st.rows != nil, path, want)
	}
	for i := int64(1); i <= 2; i++ {
		rows, err := r.read(st)
		if err != nil || len(rows) != 2 {
			t.Fatalf("read %d: %d rows, %v", i, len(rows), err)
		}
		want.Lookups, want.Hits, want.HitBytes, want.SpillLoads = i, i, 80*i, i
		_, statErr := os.Stat(path)
		if r.stats != want || st.rows != nil || r.used != 0 || (statErr == nil) != (i == 1) {
			t.Errorf("read %d: stats %+v, resident %v, %d bytes used, file: %v; want %+v, the file gone after the last read",
				i, r.stats, st.rows != nil, r.used, statErr, want)
		}
	}
}

// TestSlotReadDuringSpillWrite: a stage over the budget is readable once
// it is admitted, and evicted once its spill file is written. A reader that
// arrives before then takes the producer's rows from memory, a hit and no
// spill load. A read left when the write ends loads the file and removes
// it; with none left, the write removes the file it made.
func TestSlotReadDuringSpillWrite(t *testing.T) {
	for _, during := range []int64{1, 2} {
		dir := t.TempDir()
		r, sts := slotRunner(0, dir, 2, "a")
		st := sts[0]
		f := &flight{done: st.done, rows: intRows(2), bytes: 80}
		if !r.admit(st, f) { // as produce admits it, before the write
			t.Fatal("a stage over the budget is not to be spilled")
		}
		select {
		case <-st.done:
		default:
			t.Fatal("the stage's done is still open when its write starts")
		}
		for range during {
			if rows, err := r.read(st); err != nil || len(rows) != 2 || &rows[0] != &f.rows[0] {
				t.Fatalf("read during the write: %d rows, %v; want the producer's 2", len(rows), err)
			}
		}
		want := CacheStats{Lookups: during, Hits: during, HitBytes: 80 * during, Admissions: 1, AdmittedBytes: 80}
		if r.stats != want {
			t.Errorf("%d reads during the write: stats %+v, want %+v", during, r.stats, want)
		}
		r.spill(st, f)
		left, _ := os.ReadDir(dir)
		if r.stats.Spills != 1 || r.stats.Evictions != 1 || len(left) != int(2-during) {
			t.Errorf("%d reads during the write: %d spills, %d evictions, %d files left after it; want 1, 1, %d",
				during, r.stats.Spills, r.stats.Evictions, len(left), 2-during)
		}
		if during == 2 {
			continue
		}
		if rows, err := r.read(st); err != nil || len(rows) != 2 || r.stats.SpillLoads != 1 {
			t.Errorf("read after the write: %d rows, %v, %d spill loads; want 2 rows from 1 load", len(rows), err, r.stats.SpillLoads)
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 || st.path != "" {
			t.Errorf("the last planned read left %d files, path %q", len(left), st.path)
		}
	}
}

// TestSlotFailedSpillStaysResident: a spill write that fails leaves the
// stage resident over the budget, not evicted. At one worker codeSuite's
// members start after the producer's write, which fails in a spill
// directory that is not there, so each reads the rows from memory and loads
// what it loads alone, from the stage's one producer run. The failed write
// is counted: a suite whose disk is full does not look like one that fit.
func TestSlotFailedSpillStaysResident(t *testing.T) {
	ctx := context.Background()
	p, err := newPlan(ctx, codeSuite(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner(p, Options{CacheBytes: 0}, filepath.Join(t.TempDir(), "absent"))
	res := r.suite(ctx, 1)
	if st := res.Stats; st.StageRuns != int64(st.Stages) || st.Cache.Spills != 0 || st.Cache.Evictions != 0 || st.Cache.Hits != 2 || st.Cache.SpillFailures != 1 {
		t.Errorf("stats %+v: want one producer run per stage, nothing spilled or evicted, 2 hits and the one failed spill write counted", st)
	}
	if r.used != 0 {
		t.Errorf("%d bytes still held after the last read", r.used)
	}
	for i, wf := range codeSuite(t) {
		solo, err := engine.New(wf.Bindings).Run(ctx, wf.Graph)
		if err != nil {
			t.Fatal(err)
		}
		if wr := res.Workflows[i]; wr.Err != nil {
			t.Errorf("%s: %v", wr.Name, wr.Err)
		} else if err := engine.SameRun(solo, wr.Result); err != nil {
			t.Errorf("%s: %v", wr.Name, err)
		}
	}
}

// TestResidentStageOwnsItsRecords: a stage admitted resident under a
// finite budget is copied into chunks of its own. Made by a chain of
// filters alone, a stage's rows are its source's records, so without the
// copy a 1 %-selective chain would keep the source's whole chunk alive
// behind a budget that charges a hundredth of it. Unbounded, nothing is
// charged and nothing copied.
func TestResidentStageOwnsItsRecords(t *testing.T) {
	const n = 10000
	schema := data.Schema{"K", "V"}
	chunk := make([]data.Value, len(schema)*n) // the source's records, cut from one array
	src := make(data.Rows, n)
	for i := range src {
		src[i] = chunk[2*i : 2*i+2 : 2*i+2]
		src[i][0], src[i][1] = data.NewInt(int64(i)), data.NewInt(int64(i%100))
	}
	inChunk := func(r data.Record) bool {
		lo, p := uintptr(unsafe.Pointer(&chunk[0])), uintptr(unsafe.Pointer(&r[0]))
		return p >= lo && p < lo+uintptr(len(chunk))*unsafe.Sizeof(chunk[0])
	}
	var wfs []Workflow
	for _, out := range []string{"OUTA", "OUTB"} {
		g, err := dsl.Parse(fmt.Sprintf(`
recordset SRC source rows=%d schema=K,V
activity a filter pred="K >= 0"
activity b filter pred="V < 1"
recordset %s target schema=K,V
flow SRC -> a -> b -> %s`, n, out, out))
		if err != nil {
			t.Fatal(err)
		}
		wfs = append(wfs, Workflow{Name: out, Graph: g, Bindings: map[string]data.Recordset{"SRC": data.NewMemoryRecordset("SRC", schema).MustLoad(src)}})
	}
	for _, c := range []struct {
		budget int64
		copied bool
	}{{1 << 20, true}, {-1, false}} {
		p, err := newPlan(context.Background(), wfs, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.order) != 1 {
			t.Fatalf("%d stages, want the filter chain's one", len(p.order))
		}
		st := p.stages[p.order[0]]
		r := newRunner(p, Options{CacheBytes: c.budget}, t.TempDir())
		r.produce(context.Background(), st, nil)
		if len(st.rows) != n/100 || st.path != "" {
			t.Fatalf("budget %d: %d rows resident, file %q; want %d resident", c.budget, len(st.rows), st.path, n/100)
		}
		for i, row := range st.rows {
			if inChunk(row) == c.copied || cap(row) != len(row) {
				t.Fatalf("budget %d: row %d in the source's chunk %v (cap %d); want %v with cap %d", c.budget, i, inChunk(row), cap(row), !c.copied, len(row))
			}
		}
	}
}

// TestSuiteReleasesEverySlot: when a clean suite's runs are done, before
// RunSuite removes its spill directory, every read has been taken, every
// stage's rows released and every spill file removed — unbounded, and at
// budget 0 with a spill directory given and without, where the suite's
// directory is made under os.TempDir(); that leaves nothing there.
func TestSuiteReleasesEverySlot(t *testing.T) {
	scs, err := generator.SharedSuite(generator.Small, 3, 99)
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	for _, c := range []struct {
		budget int64
		spill  bool
	}{{-1, false}, {0, true}, {0, false}} {
		for _, workers := range []int{1, 4} {
			p, err := newPlan(context.Background(), suiteWorkflows(scs), workers)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{CacheBytes: c.budget}
			if c.spill {
				opts.SpillDir = t.TempDir()
			}
			dir, err := makeSpillDir(opts)
			if err != nil {
				t.Fatal(err)
			}
			r := newRunner(p, opts, dir)
			res := r.suite(context.Background(), workers)
			for _, wr := range res.Workflows {
				if wr.Err != nil {
					t.Fatalf("%s: %v", wr.Name, wr.Err)
				}
			}
			for _, st := range p.stages {
				if st.readers != 0 || st.rows != nil || st.path != "" {
					t.Errorf("budget %d spill %v W=%d: stage %d has %d reads left, resident %v, file %q",
						c.budget, c.spill, workers, st.class, st.readers, st.rows != nil, st.path)
				}
			}
			if r.used != 0 {
				t.Errorf("budget %d spill %v W=%d: %d bytes still held", c.budget, c.spill, workers, r.used)
			}
			if left, _ := os.ReadDir(dir); len(left) != 0 {
				t.Errorf("budget %d spill %v W=%d: %d spill files left, first %s", c.budget, c.spill, workers, len(left), left[0].Name())
			}
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
			if st := r.stats; st.Spills == 0 != (c.budget < 0) || r.stageRuns.Load() != int64(len(p.stages)) {
				t.Errorf("budget %d spill %v W=%d: %d spills, %d stage runs for %d stages", c.budget, c.spill, workers, st.Spills, r.stageRuns.Load(), len(p.stages))
			}
		}
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Errorf("%d entries left in TMPDIR, first %s", len(left), left[0].Name())
	}
}

func TestSpillRoundTripDirect(t *testing.T) {
	dir := t.TempDir()
	schema := data.Schema{"A", "B"}
	rows := data.Rows{
		{data.NewString("comma, quote \" and\nnewline"), data.NewInt(1)},
		{data.Null, data.NewFloat(3.5)},
	}
	path, err := writeSpill(dir, 1, schema, rows)
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
		path, err := writeSpill(t.TempDir(), 1, schema, rows)
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
	path, err := writeSpill(t.TempDir(), 1, schema, rows)
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
