package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"text/tabwriter"
)

// host records the facts a result depends on besides the code.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

// summary is one end-to-end metric of one workload over the rounds.
type summary struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Unit   string    `json:"unit"`
	Runs   []float64 `json:"runs"`
}

type workloadReport struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]value   `json:"per_layer"`
}

// setReport is what set mode measures and -compare reads.
type setReport struct {
	Host      host                       `json:"host"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

func hostFacts() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// measureSet runs every workload: setRounds untraced runs each, interleaved
// across workloads so a noisy stretch of a shared host is spread over all
// of them, then one traced run each.
func measureSet(seed int64, seconds float64) (*setReport, error) {
	rep := &setReport{Host: hostFacts(), Seed: seed, Seconds: seconds,
		Workloads: map[string]*workloadReport{}}
	ws := workloads()
	runs := map[string]map[string][]float64{}
	for round := 0; round < setRounds; round++ {
		for _, w := range ws {
			fmt.Fprintf(os.Stderr, "round %d/%d %s\n", round+1, setRounds, w.name)
			res, err := runOne(w, seed, seconds, false)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			wr := rep.Workloads[w.name]
			if wr == nil {
				wr = &workloadReport{EndToEnd: map[string]summary{}}
				rep.Workloads[w.name] = wr
				runs[w.name] = map[string][]float64{}
			}
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			if !res.Correct {
				wr.Failed++ // golden mismatch
			}
			for name, v := range res.Metrics {
				runs[w.name][name] = append(runs[w.name][name], v.Value)
			}
		}
	}
	for _, w := range ws {
		for _, d := range endToEnd {
			xs := runs[w.name][d.Name]
			q1, med, q3 := quartiles(xs)
			rep.Workloads[w.name].EndToEnd[d.Name] = summary{Median: med, Q1: q1, Q3: q3, Unit: d.Unit, Runs: xs}
		}
		fmt.Fprintf(os.Stderr, "traced %s\n", w.name)
		res, err := runOne(w, seed, seconds, true)
		if err != nil {
			return nil, fmt.Errorf("%s traced: %w", w.name, err)
		}
		rep.Workloads[w.name].PerLayer = res.Metrics
		rep.Workloads[w.name].Failed += res.Failed
	}
	return rep, nil
}

func (rep *setReport) print() {
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "host\tnproc=%d GOMAXPROCS=%d %s commit=%s seed=%d\n",
		rep.Host.NProc, rep.Host.GOMAXPROCS, rep.Host.Go, rep.Host.Commit, rep.Seed)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tq1\tq3\tunit")
	for _, w := range workloads() {
		wr := rep.Workloads[w.name]
		for _, d := range endToEnd {
			s := wr.EndToEnd[d.Name]
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%s\n", w.name, d.Name, s.Median, s.Q1, s.Q3, s.Unit)
		}
		fmt.Fprintf(tw, "%s\tfailed_share\t%d of %d\t\t\tpasses\n", w.name, wr.Failed, wr.Attempted)
	}
	fmt.Fprintln(tw, "\nper-layer metric\t"+wide+"\t"+keyed+"\t"+deep+"\t"+spill+"\tunit")
	for _, d := range perLayer {
		fmt.Fprintf(tw, "%s", d.Name)
		for _, w := range workloads() {
			if v := rep.Workloads[w.name].PerLayer[d.Name]; v.Absent {
				fmt.Fprint(tw, "\tabsent")
			} else {
				fmt.Fprintf(tw, "\t%.6g", v.Value)
			}
		}
		fmt.Fprintf(tw, "\t%s\n", d.Unit)
	}
	tw.Flush()
}

// gates are the conditions under which a set's figures may not be
// committed: a failed pass, or layer spans that do not add up to the
// end-to-end window.
func (rep *setReport) gates() error {
	var problems []string
	for name, wr := range rep.Workloads {
		if wr.Failed > 0 {
			problems = append(problems, fmt.Sprintf("%s: %d failed passes or reference mismatches", name, wr.Failed))
		}
		if r := wr.PerLayer["pass.residual_pct"].Value; math.Abs(r) > 10 {
			problems = append(problems, fmt.Sprintf("%s: |pass.residual_pct| = %.1f > 10", name, math.Abs(r)))
		}
		if o := wr.PerLayer["pass.trace_overhead_pct"].Value; o > 15 {
			problems = append(problems, fmt.Sprintf("%s: pass.trace_overhead_pct = %.1f > 15", name, o))
		}
	}
	if len(problems) > 0 {
		return errors.New(strings.Join(problems, "; "))
	}
	return nil
}

func runSet(seed int64, seconds float64, jsonOut string) error {
	rep, err := measureSet(seed, seconds)
	if err != nil {
		return err
	}
	rep.print()
	if jsonOut != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	return rep.gates()
}

// verdict compares one metric of one workload between a parent (old) and a
// change (new). worse is the share of the parent's median by which the
// change is worse; spread is the parent's own quartile distance over its
// median. A change within the bound is "unchanged" only if the parent's
// runs agree more tightly than the bound; otherwise the benchmark cannot
// tell, and says "unresolved".
func verdict(d metricDecl, old, new summary) (worse, spread float64, v string) {
	worse = (new.Median - old.Median) / old.Median
	if d.Better == "higher" {
		worse = -worse
	}
	spread = (old.Q3 - old.Q1) / old.Median
	switch {
	case worse > math.Max(d.Bound, spread):
		v = "regressed"
	case -worse > spread && worse < 0:
		v = "improved"
	case spread > d.Bound:
		v = "unresolved"
	default:
		v = "unchanged"
	}
	return worse, spread, v
}

// compareSets prints one row per workload × end-to-end metric and returns
// how many rows bad flags; a workload with more failed passes than before
// always counts.
func compareSets(old, new *setReport, bad func(d metricDecl, worse float64, verdict string) bool) int {
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tworse by\tparent spread\tbound\tverdict")
	n := 0
	for _, w := range workloads() {
		o, nw := old.Workloads[w.name], new.Workloads[w.name]
		if o == nil || nw == nil {
			fmt.Fprintf(tw, "%s\t(missing from one side)\n", w.name)
			continue
		}
		for _, d := range endToEnd {
			worse, spread, v := verdict(d, o.EndToEnd[d.Name], nw.EndToEnd[d.Name])
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.2f%%\t%.1f%%\t%s\n", w.name, d.Name,
				o.EndToEnd[d.Name].Median, nw.EndToEnd[d.Name].Median, 100*worse, 100*spread, 100*d.Bound, v)
			if bad(d, worse, v) {
				n++
			}
		}
		if nw.Failed > o.Failed {
			fmt.Fprintf(tw, "%s\tfailed passes\t%d\t%d\t\t\t\tregressed\n", w.name, o.Failed, nw.Failed)
			n++
		}
	}
	tw.Flush()
	return n
}

func readSet(path string) (*setReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep setReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// comparable refuses two sets whose figures differ for a reason other than
// the code: another seed or run length, another processor count, or another
// Go toolchain, which moves the calibration kernel under window_rel as well
// as the program.
func comparable(old, new *setReport) error {
	oh, nh := old.Host, new.Host
	oh.Commit, nh.Commit = "", ""
	if oh != nh || old.Seed != new.Seed || old.Seconds != new.Seconds {
		return fmt.Errorf("the two sets are not comparable: %+v seed %d %gs against %+v seed %d %gs",
			oh, old.Seed, old.Seconds, nh, new.Seed, new.Seconds)
	}
	return nil
}

func compareFiles(oldPath, newPath string) error {
	old, err := readSet(oldPath)
	if err != nil {
		return err
	}
	new, err := readSet(newPath)
	if err != nil {
		return err
	}
	if err := comparable(old, new); err != nil {
		return err
	}
	regressed := func(_ metricDecl, _ float64, v string) bool { return v == "regressed" }
	if n := compareSets(old, new, regressed); n > 0 {
		return fmt.Errorf("%d regressed", n)
	}
	return nil
}

// selfCheck measures the same code twice and reports whether the two sets
// agree within the benchmark's own bounds: the precondition for any later
// comparison to mean something.
func selfCheck(seed int64, seconds float64) error {
	first, err := measureSet(seed, seconds)
	if err != nil {
		return err
	}
	second, err := measureSet(seed, seconds)
	if err != nil {
		return err
	}
	differs := func(d metricDecl, worse float64, _ string) bool { return math.Abs(worse) > d.Bound }
	if n := compareSets(first, second, differs); n > 0 {
		return fmt.Errorf("selfcheck: %d metrics do not repeat within their bound on the same code", n)
	}
	fmt.Println("selfcheck: every end-to-end metric repeats within its bound")
	return second.gates()
}
