package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// table is one CSV record file held as text fields: a header and rows.
type table struct {
	Schema []string
	Rows   [][]string
}

// wfSpec is one workflow of a workload before any data exists: its DSL
// text, the feeds the set-up must generate (name → schema) and the tables
// whose content does not depend on the seed (lookups, dimensions).
type wfSpec struct {
	Text  string
	Feeds map[string][]string
	Fixed map[string]table
}

// digest identifies a target's row multiset: SHA-256 over the sorted CSV
// lines, plus the row count so a mismatch report says how far off it is.
type digest struct {
	SHA256 string `json:"sha256"`
	Rows   int    `json:"rows"`
}

// member is one workflow of a prepared input directory. Paths are relative
// to the directory that holds the manifest.
type member struct {
	Name      string            `json:"name"`
	Workflow  string            `json:"workflow"`
	Data      string            `json:"data"`
	Reference map[string]digest `json:"reference"`
}

// manifest is what the set-up phase hands to the run phase; the run phase
// reads nothing else.
type manifest struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Rows     int      `json:"rows_per_source"`
	Members  []member `json:"members"`
	// CacheBytes is suite-spill's shared-cache budget: an eighth of the
	// bytes an unbounded set-up run admitted. At half, evicted
	// intermediates are spilled but never needed again; at an eighth some
	// consumers find theirs in memory and some read a spill file back.
	CacheBytes int64 `json:"cache_bytes,omitempty"`
}

const manifestName = "manifest.json"

func readManifest(dir string) (*manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", manifestName, err)
	}
	return &m, nil
}

// setUp writes a workload's input directory: workflow texts, generated
// CSVs, and a manifest carrying the reference digest of every target,
// computed by running the workflows as written (no optimizer,
// materialized, one at a time).
func setUp(w *workload, seed int64, dir string) error {
	specs, err := w.specs()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	m := &manifest{Workload: w.name, Seed: seed, Rows: w.rows}
	for i, spec := range specs {
		mem := member{
			Name:     fmt.Sprintf("wf-%d", i+1),
			Workflow: fmt.Sprintf("wf-%d.etl", i+1),
			Data:     fmt.Sprintf("data-%d", i+1),
		}
		if w.pass.suite {
			// Suite members read the same extracts; that is what the
			// scheduler shares.
			mem.Data = "data"
		}
		if err := os.WriteFile(filepath.Join(dir, mem.Workflow), []byte(spec.Text), 0o644); err != nil {
			return err
		}
		dataDir := filepath.Join(dir, mem.Data)
		if i == 0 || !w.pass.suite {
			if err := os.MkdirAll(dataDir, 0o755); err != nil {
				return err
			}
			for name, t := range spec.Fixed {
				if err := writeTable(csvPath(dataDir, name), t); err != nil {
					return err
				}
			}
			if w.keyed {
				err = writeKeyedData(seed, w.rows, dataDir)
			} else {
				err = writeFeeds(seed, w.rows, dataDir, spec.Feeds)
			}
			if err != nil {
				return err
			}
		}
		m.Members = append(m.Members, mem)
	}

	refDir := filepath.Join(dir, "ref")
	if _, err := runPass(passConfig{}, m, dir, refDir, nil); err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	for i, mem := range m.Members {
		files, err := filepath.Glob(csvPath(filepath.Join(refDir, mem.Name), "*"))
		if err != nil {
			return err
		}
		m.Members[i].Reference = map[string]digest{}
		for _, path := range files {
			d, err := digestCSV(path)
			if err != nil {
				return err
			}
			m.Members[i].Reference[strings.TrimSuffix(filepath.Base(path), ".csv")] = d
		}
	}
	if err := os.RemoveAll(refDir); err != nil {
		return err
	}
	if w.pass.suite {
		unbounded := w.pass
		unbounded.cacheBytes = -1
		res, err := runPass(unbounded, m, dir, refDir, nil)
		if err != nil {
			return fmt.Errorf("unbounded suite run: %w", err)
		}
		m.CacheBytes = res.Suite.Cache.AdmittedBytes / 8
		if err := os.RemoveAll(refDir); err != nil {
			return err
		}
	}
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, manifestName), append(raw, '\n'), 0o644)
}

func csvPath(dir, name string) string { return filepath.Join(dir, name+".csv") }

// writeRows streams n generated rows to a CSV file.
func writeRows(path string, schema []string, n int, row func(i int) []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	cw := csv.NewWriter(bw)
	err = cw.Write(schema)
	for i := 0; i < n && err == nil; i++ {
		err = cw.Write(row(i))
	}
	cw.Flush()
	if err == nil {
		err = cw.Error()
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func writeTable(path string, t table) error {
	return writeRows(path, t.Schema, len(t.Rows), func(i int) []string { return t.Rows[i] })
}

// fileRNG seeds one file's generator from the run seed and the file name,
// so a file's content does not depend on which files were written first.
func fileRNG(seed int64, name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// measure renders a numeric measure as a multiple of 1/8: sums of such
// values are exact in float64, so an aggregate's total does not depend on
// the order a plan happens to feed it rows, and the reference digest holds
// for every equivalent plan.
func measure(eighths int) string {
	return strconv.FormatFloat(float64(eighths)/8, 'g', -1, 64)
}

// writeFeeds generates the source feeds of a generator-built workflow. The
// value domains follow internal/generator's own data (keys inside the
// surrogate lookup's domain, measures spanning the filter thresholds with
// 5 % NULLs, mixed-case codes, American-format dates, payload extras); only
// the row count and the seed are the benchmark's.
func writeFeeds(seed int64, rows int, dir string, feeds map[string][]string) error {
	months := []string{"01/15/2004", "02/15/2004", "03/15/2004", "04/15/2004"}
	codes := []string{"alpha", "Beta", "GAMMA", "delta ", "epsilon"}
	for name, schema := range feeds {
		rng := fileRNG(seed, name)
		rec := make([]string, len(schema))
		err := writeRows(csvPath(dir, name), schema, rows, func(int) []string {
			for j, attr := range schema {
				switch {
				case attr == "KEY":
					rec[j] = strconv.Itoa(rng.Intn(64))
				case attr == "CODE":
					rec[j] = codes[rng.Intn(len(codes))]
				case attr == "DATE":
					rec[j] = months[rng.Intn(len(months))]
				case strings.HasPrefix(attr, "XTRA"):
					rec[j] = "payload-" + strconv.Itoa(rng.Intn(50))
				case rng.Float64() < 0.05:
					rec[j] = "NULL"
				default:
					rec[j] = measure(rng.Intn(1600))
				}
			}
			return rec
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// writeKeyedData generates window-keyed's inputs: two order feeds of rows
// rows each with long string keys, Zipf(1.1) customers, a wide payload and
// 5 % exact duplicates, plus the key sets, surrogate lookup and dimension
// the workflow reconciles them against.
func writeKeyedData(seed int64, rows int, dir string) error {
	const customers = 10_000
	regions := []string{"EMEA-NORTH", "EMEA-SOUTH", "AMER-EAST", "AMER-WEST", "APAC-NORTH", "APAC-SOUTH"}
	custName := func(id int) string { return fmt.Sprintf("CUSTOMER-%05d-ACCOUNT-%010d", id%977, id) }
	custSK := func(id int) string { return strconv.Itoa(500_000 + id) }

	var orderIDs []string
	feed := func(name string, crossFeed []string) error {
		rng := fileRNG(seed, name)
		zipf := rand.NewZipf(rng, 1.1, 1, customers-1)
		out := make([][]string, 0, rows)
		for i := 0; i < rows; i++ {
			if i > 0 && rng.Float64() < 0.05 {
				out = append(out, out[rng.Intn(i)]) // exact duplicate
				continue
			}
			id := fmt.Sprintf("ORD-2005-%s-%04d-%012d", name, rng.Intn(10_000), rng.Int63n(1e12))
			if len(crossFeed) > 0 && rng.Float64() < 0.01 {
				// The same order reported by both feeds with different
				// payloads: the group primary-key check rejects both.
				id = crossFeed[rng.Intn(len(crossFeed))]
			}
			amount := "NULL"
			if rng.Float64() >= 0.02 {
				amount = measure(8 + rng.Intn(80_000))
			}
			note := fmt.Sprintf("note %08x %08x %08x %08x carrier=%d window=%d instructions=leave-at-door-%06d",
				rng.Uint32(), rng.Uint32(), rng.Uint32(), rng.Uint32(), rng.Intn(40), rng.Intn(96), rng.Intn(1_000_000))
			out = append(out, []string{id, custName(int(zipf.Uint64())), strconv.Itoa(1 + rng.Intn(20)), amount, note})
			orderIDs = append(orderIDs, id)
		}
		return writeTable(csvPath(dir, name), table{
			Schema: []string{"ORDER_ID", "CUST", "QTY", "AMOUNT", "NOTE"}, Rows: out})
	}
	if err := feed("ORDERS_A", nil); err != nil {
		return err
	}
	if err := feed("ORDERS_B", orderIDs); err != nil {
		return err
	}

	// Key sets drawn from the order IDs: cancelled orders (diff) and orders
	// the warehouse already holds (lookup primary-key check).
	sample := func(name string, share float64) table {
		rng := fileRNG(seed, name)
		t := table{Schema: []string{"ORDER_ID"}}
		for _, id := range orderIDs {
			if rng.Float64() < share {
				t.Rows = append(t.Rows, []string{id})
			}
		}
		return t
	}
	if err := writeTable(csvPath(dir, "CANCELLED"), sample("CANCELLED", 0.05)); err != nil {
		return err
	}
	if err := writeTable(csvPath(dir, "DWORDERS"), sample("DWORDERS", 0.03)); err != nil {
		return err
	}

	keys := table{Schema: []string{"CUST", "CUST_SK"}}
	dim := table{Schema: []string{"CUST_SK", "REGION"}}
	active := table{Schema: []string{"CUST_SK"}}
	rng := fileRNG(seed, "ACTIVE")
	for id := 0; id < customers; id++ {
		keys.Rows = append(keys.Rows, []string{custName(id), custSK(id)})
		dim.Rows = append(dim.Rows, []string{custSK(id), regions[id%len(regions)]})
		if rng.Float64() < 0.8 {
			active.Rows = append(active.Rows, []string{custSK(id)})
		}
	}
	if err := writeTable(csvPath(dir, "CUSTKEYS"), keys); err != nil {
		return err
	}
	if err := writeTable(csvPath(dir, "CUSTDIM"), dim); err != nil {
		return err
	}
	return writeTable(csvPath(dir, "ACTIVE"), active)
}

// digestCSV computes the order-independent digest of a CSV record file.
func digestCSV(path string) (digest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return digest{}, err
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	lines = lines[1:] // header
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return digest{SHA256: hex.EncodeToString(h.Sum(nil)), Rows: len(lines)}, nil
}

// readHeader returns the attribute names in a CSV file's first line. The
// generated headers never need quoting.
func readHeader(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("reading header of %s: %w", path, err)
	}
	return strings.Split(strings.TrimRight(line, "\r\n"), ","), nil
}
