package main

import (
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The calibration kernel is a fixed piece of standard-library-only work of
// the same kind the program under test does — build string keys, fill hash
// maps, parse numbers, copy and sort records — timed right before and
// right after every pass. A pass's wall time divided by the kernel's is
// what window_rel reports: on a shared host, neighbours slow memory-bound
// work by 10-40 % for minutes at a time, and that slowdown is in both
// numbers. Nothing here may call into the program under test, or a change
// to the program would move its own yardstick.
//
// The kernel ends with a stretch of register-only arithmetic, which
// neighbours do not slow. Without it the kernel reacts to the host more
// than a pass does: over 160 runs a pass's time went as the kernel's to the
// power 0.75 on every workload, because part of a pass is compute-bound
// too. With the stretch at about a sixth of the kernel's time the ratio's
// run-to-run deviation fell from 4 % to 2 % (README.md, "Noise").

// calibrationSink keeps the kernel's results alive so the compiler cannot
// drop the work.
var calibrationSink float64

// calibrate runs the kernel once and returns its wall time in seconds. It
// keeps nothing: the records are made, used and dropped inside the call,
// so the kernel adds nothing to the resident set a pass is measured on.
func calibrate() float64 {
	start := time.Now()
	rng := rand.New(rand.NewSource(1))
	counts := map[string]int{}
	sums := map[string]float64{}
	const records = 40_000
	keys := make([]string, 0, records)
	for n := 0; n < records; n++ {
		r := []string{
			strconv.Itoa(rng.Intn(5000)),
			strconv.FormatFloat(float64(rng.Intn(16000))/8, 'g', -1, 64),
			"code-" + strconv.Itoa(rng.Intn(7)),
			"03/15/2004",
			"payload-" + strconv.Itoa(rng.Intn(50)),
			strconv.Itoa(rng.Int()),
		}
		var b strings.Builder
		for i, f := range r {
			if i > 0 {
				b.WriteByte(0x1f)
			}
			b.WriteString(f)
		}
		k := b.String()
		counts[k]++
		v, _ := strconv.ParseFloat(r[1], 64) // the field was formatted from a float
		sums[r[0]] += v
		r[2] = strings.ToUpper(r[2])
		keys = append(keys, k[:8]+r[2])
	}
	sort.Strings(keys[:len(keys)/3])
	x := uint64(88172645463325252)
	for i := 0; i < 4_000_000; i++ { // xorshift64: one dependent chain, no memory
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibrationSink += sums["7"] + float64(len(counts)) + float64(x&1)
	return time.Since(start).Seconds()
}
