package main

import (
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// modeMetrics runs the workflow as written through the etlrun binary in
// each execution mode, and with a checkpoint directory (cold, interrupted,
// resumed), as child processes: wall time and the child's peak RSS. Modes and
// checkpointing are reached only this way, so deleting one from the
// program removes a figure here (it is marked absent), not the
// benchmark's build. Each figure is one run: they rank the modes, they are
// not bounds.
func modeMetrics(ms *metricSet, workflowPath, dataDir, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	etlrun := filepath.Join(filepath.Dir(self), "etlrun")
	if _, err := os.Stat(etlrun); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: no etlrun binary beside the benchmark; mode and checkpoint figures absent")
		return nil
	}
	workflowPath, err = filepath.Abs(workflowPath)
	if err != nil {
		return err
	}
	// etlrun writes targets into its data directory and appends to a
	// target file it finds there, so every run gets a fresh directory of
	// links to the inputs.
	run := func(tag string, args ...string) (sec, rssMB float64, ok bool) {
		dir := filepath.Join(outDir, "etlrun-"+tag)
		if err := linkInputs(dataDir, dir); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 0, 0, false
		}
		cmd := exec.Command(etlrun, append([]string{"-in", workflowPath, "-data", dir}, args...)...)
		cmd.Stderr = os.Stderr
		start := time.Now()
		err := cmd.Run()
		sec = time.Since(start).Seconds()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: etlrun %v: %v; figure absent\n", args, err)
			return 0, 0, false
		}
		if ru, isRusage := cmd.ProcessState.SysUsage().(*syscall.Rusage); isRusage {
			rssMB = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports kB
		}
		return sec, rssMB, true
	}
	for _, mode := range []string{"materialized", "pipelined", "parallel"} {
		if sec, rss, ok := run(mode, "-mode", mode, "-partitions", strconv.Itoa(parallelism())); ok {
			ms.set("engine.mode_window_s."+mode, sec)
			ms.set("engine.mode_peak_rss_mb."+mode, rss)
		}
	}
	// Checkpointing: a cold run to completion prices staging every node.
	// A completed run clears its staging area, so the resume figure comes
	// from a second run interrupted (SIGINT, the crash the runner exists
	// to survive) once half the nodes are staged, and a third that
	// restores those and computes the rest.
	stage := filepath.Join(outDir, "etlrun-stage")
	sec, _, ok := run("cold", "-checkpoint", stage)
	if !ok {
		return nil
	}
	ms.set("engine.checkpoint_stage_s", sec)
	text, err := os.ReadFile(workflowPath)
	if err != nil {
		return err
	}
	half := strings.Count("\n"+string(text), "\nactivity ") / 2
	dir := filepath.Join(outDir, "etlrun-interrupted")
	if err := linkInputs(dataDir, dir); err != nil {
		return err
	}
	cmd := exec.Command(etlrun, "-in", workflowPath, "-data", dir, "-checkpoint", stage)
	if err := cmd.Start(); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	var waitErr error
poll:
	for {
		select {
		case waitErr = <-done:
			break poll
		case <-tick.C:
			if staged, _ := filepath.Glob(filepath.Join(stage, "node-*.csv")); len(staged) >= half {
				cmd.Process.Signal(os.Interrupt) // an error means it has already exited
				waitErr = <-done
				break poll
			}
		}
	}
	if waitErr == nil {
		fmt.Fprintln(os.Stderr, "benchmark: etlrun finished before it could be interrupted; resume figure absent")
		return nil
	}
	var bytes int64
	err = filepath.WalkDir(stage, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			bytes += info.Size()
		}
		return err
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: interrupted etlrun left no staging area (%v); resume figure absent\n", err)
		return nil
	}
	ms.set("engine.checkpoint_bytes", float64(bytes))
	if sec, _, ok := run("resume", "-checkpoint", stage); ok {
		ms.set("engine.checkpoint_resume_s", sec)
	}
	return nil
}

// linkInputs makes dir a fresh directory holding a symlink to every file
// of dataDir.
func linkInputs(dataDir, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files, err := filepath.Glob(filepath.Join(dataDir, "*"))
	if err != nil {
		return err
	}
	for _, f := range files {
		abs, err := filepath.Abs(f)
		if err != nil {
			return err
		}
		if err := os.Symlink(abs, filepath.Join(dir, filepath.Base(f))); err != nil {
			return err
		}
	}
	return nil
}
