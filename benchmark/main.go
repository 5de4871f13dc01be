// Command benchmark is the repository's benchmark: four workloads that
// each drive the ETL optimizer and engine from files on disk to loaded
// target files, five end-to-end metrics per workload, and a traced run
// that breaks a pass into per-layer figures. README.md says why each
// workload exists and how the figures relate.
//
//	benchmark --workload W --seed N --seconds S --trace 0|1   one run, one JSON line
//	benchmark [-json OUT]                                     every workload, table + gates
//	benchmark -selfcheck                                     the set twice, compared
//	benchmark -compare OLD.json NEW.json                     verdict per workload × metric
//	benchmark -describe                                      print BENCHMARK.json
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	defaultSeed = 20050405
	// runSeconds is how long one run measures; BENCHMARK.json carries it.
	runSeconds = 20
	// A run sets up at least setUps times, and until setUpSeconds have gone
	// into it, to report a median setup_s.
	setUps       = 3
	setUpSeconds = 1.0
	// setRounds is how many untraced runs per workload set mode makes,
	// interleaved across workloads.
	setRounds = 3
	// buildDir holds everything the benchmark writes.
	buildDir = ".bench_build"
)

//go:embed workloads/keyed.etl
var keyedWorkflow string

//go:embed golden.json
var goldenJSON []byte

// workload is one set of inputs and the way a pass drives the program over
// them. rows, kernelRows and pass.maxStates are the input size; the tests
// shrink them.
type workload struct {
	name string
	why  string
	// rows is the row count of each generated feed; kernelRows is how many
	// rows each operator kernel of the traced run processes.
	rows       int
	kernelRows int
	keyed      bool // the feeds are window-keyed's orders, not generator branch feeds
	specs      func() ([]wfSpec, error)
	pass       passConfig
}

// workloads lists the four workloads. Engine, search and suite parallelism
// are min(nproc, 2), so a result from a larger host stays comparable.
func workloads() []*workload {
	par := parallelism()
	ws := []*workload{
		{
			name: wide, rows: 16000, specs: wideSpecs,
			why:  "nightly window: generator large workflow (6 branches, 64 activities), 16000 rows/source CSV, HS-Greedy at 1000 states, Materialized; row-volume-bound on scan and partition-local operators",
			pass: passConfig{algo: "hs-greedy", maxStates: 1000, searchWorkers: par},
		},
		{
			name: keyed, rows: 40000, keyed: true,
			specs: func() ([]wfSpec, error) { return []wfSpec{{Text: keyedWorkflow}}, nil },
			why:   "hand-written key-heavy flow: two 40000-row order feeds, Zipf(1.1) keys, long string keys, partitioned engine; key building, exchange and merge bound, optimizer idle",
			pass:  passConfig{algo: "hs-greedy", searchWorkers: par, partitions: par},
		},
		{
			name: deep, rows: 120, specs: deepSpecs,
			why:  "paper 4.2 experiment: 2 medium + 2 large workflows, HS at 1000 states, 1 worker, 120 rows/source; state-budget-bound, engine and data nearly idle: the bypass for engine changes",
			pass: passConfig{algo: "hs", maxStates: 1000, searchWorkers: 1},
		},
		{
			name: spill, rows: 4000, specs: suiteSpecs,
			why:  "load window of 4 shared-prefix medium workflows, 4000 rows/source, RunSuite with spill and a cache of 1/8 of the working set: intermediates written and read back, sources digested",
			pass: passConfig{suite: true, suiteWorkers: par},
		},
	}
	for _, w := range ws {
		w.kernelRows = 50_000
	}
	return ws
}

func parallelism() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// result is the line a run prints last.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name      = flag.String("workload", "", "run this one workload and print one JSON result line")
		seed      = flag.Int64("seed", defaultSeed, "seed of every generated input file")
		seconds   = flag.Float64("seconds", runSeconds, "how long a run measures")
		trace     = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = end-to-end metrics")
		jsonOut   = flag.String("json", "", "set mode: also write the results here, for -compare")
		selfcheck = flag.Bool("selfcheck", false, "run the set twice on this code and report whether every metric agrees within its bound")
		compare   = flag.Bool("compare", false, "compare two -json files: benchmark -compare OLD.json NEW.json")
		describe  = flag.Bool("describe", false, "print BENCHMARK.json and exit")
		phase     = flag.String("phase", "", "internal: setup or run, as a child of the harness")
		dir       = flag.String("dir", "", "internal: the input directory of -phase")
	)
	flag.Parse()

	switch {
	case *describe:
		raw, err := benchmarkJSON()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(raw)
		return err
	case *compare:
		if flag.NArg() != 2 {
			return errors.New("-compare needs OLD.json NEW.json")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	case *selfcheck:
		return selfCheck(*seed, *seconds)
	case *phase != "":
		w, err := findWorkload(*name)
		if err != nil {
			return err
		}
		if *phase == "setup" {
			return setUp(w, *seed, *dir)
		}
		res, err := runPhase(w, *dir, *seconds, *trace == 1, filepath.Join(buildDir, "trace-"+w.name+".json"))
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(res)
	case *name != "":
		w, err := findWorkload(*name)
		if err != nil {
			return err
		}
		res, err := runOne(w, *seed, *seconds, *trace == 1)
		if err != nil {
			return err
		}
		// The result line's metrics are a value and a unit, no more.
		var absent []string
		for n, v := range res.Metrics {
			if v.Absent {
				absent = append(absent, n)
				res.Metrics[n] = value{Unit: v.Unit}
			}
		}
		if len(absent) > 0 {
			sort.Strings(absent)
			fmt.Fprintf(os.Stderr, "benchmark: absent on %s, printed as 0: %s\n", w.name, strings.Join(absent, " "))
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !res.Correct {
			return fmt.Errorf("%s: %d of %d passes failed or the reference does not match golden.json", w.name, res.Failed, res.Attempted)
		}
		return nil
	default:
		return runSet(*seed, *seconds, *jsonOut)
	}
}

// runOne is one run of one workload: set up setUps times in child
// processes (median → setup_s), then measure in a fresh child that reads
// only the prepared directory, so the run phase's peak RSS excludes the
// generator.
func runOne(w *workload, seed int64, seconds float64, trace bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// Scratch space is inside the checkout, under the ignored build
	// directory.
	workRoot := filepath.Join(buildDir, "work")
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(workRoot, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	// search-deep sets up in 50-60 ms, mostly process start, and single
	// set-ups of that size differ by a quarter: a cheap set-up is repeated
	// until setUpSeconds have gone into it.
	var setupTimes []float64
	var inDir string
	for i, spent := 0, 0.0; i < setUps || spent < setUpSeconds; i++ {
		if err := os.RemoveAll(inDir); err != nil {
			return nil, err
		}
		inDir = filepath.Join(work, "in-"+strconv.Itoa(i))
		start := time.Now()
		if _, err := child(self, "-phase", "setup", "-workload", w.name,
			"-seed", strconv.FormatInt(seed, 10), "-dir", inDir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		spent += setupTimes[i]
	}
	m, err := readManifest(inDir)
	if err != nil {
		return nil, err
	}
	goldenOK := true
	if seed == defaultSeed {
		if err := checkGolden(m); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			goldenOK = false
		}
	}

	traceFlag := "0"
	if trace {
		traceFlag = "1"
	}
	out, err := child(self, "-phase", "run", "-workload", w.name, "-dir", inDir,
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", traceFlag)
	if err != nil {
		return nil, fmt.Errorf("run phase: %w", err)
	}
	var res result
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("run phase output: %w", err)
	}
	if !trace {
		res.Metrics["setup_s"] = value{Value: median(setupTimes), Unit: "s"}
	} else {
		ms := newMetricSet(perLayer)
		ms.vals = res.Metrics
		if w.name == wide || w.name == keyed {
			// etlrun is measured from this small process, not from the run
			// phase: a child's reported peak RSS starts at its parent's.
			mem := m.Members[0]
			if err := modeMetrics(ms, filepath.Join(inDir, mem.Workflow), filepath.Join(inDir, mem.Data), filepath.Join(work, "modes")); err != nil {
				return nil, err
			}
		}
		res.Metrics = ms.complete()
	}
	res.Correct = res.Correct && goldenOK
	return &res, nil
}

// child runs this binary again with args, waits for it, and returns its
// standard output; its standard error passes through.
func child(self string, args ...string) ([]byte, error) {
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	return stdout.Bytes(), nil
}

// checkGolden holds the default seed's reference outputs to the digests
// committed in golden.json: a change that alters what the workflows
// compute cannot pass as a performance change.
func checkGolden(m *manifest) error {
	var golden map[string]map[string]map[string]digest
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	want, ok := golden[m.Workload]
	if !ok {
		return fmt.Errorf("golden.json has no entry for %s", m.Workload)
	}
	for _, mem := range m.Members {
		for target, got := range mem.Reference {
			if w := want[mem.Name][target]; w != got {
				return fmt.Errorf("%s %s target %s: reference %s (%d rows) differs from golden %s (%d rows)",
					m.Workload, mem.Name, target, got.SHA256[:12], got.Rows, w.SHA256, w.Rows)
			}
		}
		if len(mem.Reference) != len(want[mem.Name]) {
			return fmt.Errorf("%s %s: %d targets, golden has %d", m.Workload, mem.Name, len(mem.Reference), len(want[mem.Name]))
		}
	}
	return nil
}

// sample is one measured pass.
type sample struct {
	pass   int
	window float64
	cal    float64 // calibration kernel seconds: mean of the runs before and after the pass
	alloc  float64
	rss    float64 // the pass's own peak RSS in MB; 0 if the watermark cannot be reset
	res    *passResult
}

// runPhase measures passes back to back (closed loop, one client) for the
// given time. The first pass warms the page cache and the heap and is
// discarded. With trace set, traced and untraced passes alternate so that
// both see the same stretch of the host, and the per-layer measurements
// follow, and every span is written to traceOut.
func runPhase(w *workload, inDir string, seconds float64, trace bool, traceOut string) (*result, error) {
	m, err := readManifest(inDir)
	if err != nil {
		return nil, err
	}
	cfg := w.pass
	cfg.cacheBytes = m.CacheBytes
	outDir := filepath.Join(filepath.Dir(inDir), "out")
	var tr *tracer
	if trace {
		tr = newTracer()
	}

	var plain, traced []sample
	res := &result{}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	cal := calibrate()
	for i := 0; ; i++ {
		useTracer := trace && i%2 == 1
		warmUp := i == 0 || (trace && i == 1)
		enough := len(plain) >= 2 && (!trace || len(traced) >= 2)
		if enough && time.Now().After(deadline) {
			break
		}
		// A user's pass starts in a fresh process: collect the previous
		// pass's garbage and hand its pages back, outside the timed
		// window, then restart the peak-RSS watermark.
		debug.FreeOSMemory()
		perPassRSS := resetPeakRSS()
		passDir := filepath.Join(outDir, "pass-"+strconv.Itoa(i))
		var passTracer *tracer
		if useTracer {
			tr.pass = i
			passTracer = tr
		}
		pr, err := runPass(cfg, m, inDir, passDir, passTracer)
		s := sample{pass: i, window: pr.Window.Seconds(), alloc: float64(pr.AllocBytes) / 1e6, res: pr}
		if perPassRSS {
			s.rss = peakRSSMB()
		}
		// The kernel run after this pass is also the one before the next.
		after := calibrate()
		s.cal = (cal + after) / 2
		cal = after
		if err == nil {
			err = checkTargets(m, passDir)
		}
		if rmErr := os.RemoveAll(passDir); rmErr != nil {
			return nil, rmErr
		}
		if warmUp && err == nil {
			continue
		}
		res.Attempted++
		if err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "benchmark: %s pass %d failed: %v\n", w.name, i, err)
			if res.Failed > 3 {
				return nil, fmt.Errorf("%s: giving up after %d failed passes", w.name, res.Failed)
			}
			continue
		}
		if useTracer {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}
	res.Correct = res.Failed == 0

	if !trace {
		res.Metrics = endToEndMetrics(plain)
		return res, nil
	}
	ms := newMetricSet(perLayer)
	passMetrics(ms, tr, plain, traced)
	if err := layerMetrics(ms, w, cfg, m, inDir, outDir, traced[0].res); err != nil {
		return nil, err
	}
	if err := os.RemoveAll(outDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(traceOut), 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(traceOut); err != nil {
		return nil, err
	}
	res.Metrics = ms.vals
	return res, nil
}

// checkTargets compares every target file of a pass with the reference.
func checkTargets(m *manifest, passDir string) error {
	for _, mem := range m.Members {
		for target, want := range mem.Reference {
			got, err := digestCSV(csvPath(filepath.Join(passDir, mem.Name), target))
			if err != nil {
				return err
			}
			if got != want {
				return fmt.Errorf("%s target %s: %d rows (%s), reference has %d rows (%s)",
					mem.Name, target, got.Rows, got.SHA256[:12], want.Rows, want.SHA256[:12])
			}
		}
	}
	return nil
}

func endToEndMetrics(plain []sample) map[string]value {
	ms := newMetricSet(endToEnd)
	var rel, rss []float64
	var alloc float64
	for _, s := range plain {
		rel = append(rel, s.window/s.cal)
		alloc += s.alloc
		if s.rss > 0 {
			rss = append(rss, s.rss)
		}
	}
	last := plain[len(plain)-1].res
	ms.set("window_rel", median(rel))
	ms.set("alloc_mb", alloc/float64(len(plain)))
	// The median of the passes' own peaks where the kernel lets the
	// watermark be reset; a single pass's collector timing then moves it
	// far less than it moves the maximum over the run.
	if len(rss) == len(plain) {
		ms.set("peak_rss_mb", median(rss))
	} else {
		ms.set("peak_rss_mb", peakRSSMB())
	}
	ratio := 1.0 // a pass that runs the workflow as written
	if last.InitialCost > 0 {
		ratio = last.BestCost / last.InitialCost
	}
	ms.set("plan_cost_ratio", ratio)
	return ms.vals
}

// resetPeakRSS restarts this process's resident-set high-water mark at its
// current resident set (Linux: "5" to /proc/self/clear_refs) and reports
// whether it could.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// passMetrics derives the pass.* figures: per-span medians over the traced
// passes, the residual of the untraced window they leave unexplained, and
// what tracing itself cost.
func passMetrics(ms *metricSet, tr *tracer, plain, traced []sample) {
	var windows, cals, tracedWindows []float64
	for _, s := range plain {
		windows = append(windows, s.window)
		cals = append(cals, s.cal)
	}
	cols := make([][]float64, len(passLayers))
	for _, s := range traced {
		tracedWindows = append(tracedWindows, s.window)
		for i, v := range tr.breakdown(s.pass) {
			cols[i] = append(cols[i], v)
		}
	}
	q1, window, q3 := quartiles(windows)
	sum := 0.0
	for i, layer := range passLayers {
		v := median(cols[i])
		ms.set("pass."+layer+"_s", v)
		sum += v
	}
	ms.set("pass.residual_pct", 100*(window-sum)/window)
	ms.set("pass.trace_overhead_pct", 100*(median(tracedWindows)-window)/window)
	ms.set("pass.window_s", window)
	ms.set("pass.calibration_s", median(cals))
	ms.set("pass.window_q1_s", q1)
	ms.set("pass.window_q3_s", q3)
}
