// Package fixture trips every determinism source pass exactly where the
// linter tests expect, and exercises the exempted idioms right next to
// the violations so the tests also pin the false-positive boundary.
package fixture

import (
	"math/rand"
	"sort"
	"strings"
	"time"
)

// BadAppend records map iteration order. (map-iteration)
func BadAppend(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// GoodAppend collects then sorts: exempt.
func GoodAppend(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// BadLastWriter keeps an arbitrary entry. (map-iteration)
func BadLastWriter(m map[string]int) string {
	var last string
	for k := range m {
		last = k
	}
	return last
}

// GoodFlagSet writes a value independent of the visited entry: exempt.
func GoodFlagSet(m map[string]int) bool {
	found := false
	for _, v := range m {
		if v > 0 {
			found = true
		}
	}
	return found
}

// BadFloatSum accumulates floats in map order. (map-iteration)
func BadFloatSum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v
	}
	return sum
}

// GoodIntSum is commutative: exempt.
func GoodIntSum(m map[string]int) int {
	var sum int
	for _, v := range m {
		sum += v
	}
	return sum
}

// BadCounterIndex stores elements at iteration-order positions.
// (map-iteration)
func BadCounterIndex(m map[string]int, out []string) {
	i := 0
	for k := range m {
		out[i] = k
		i++
	}
}

// GoodMapCopy writes map-to-map: insert order does not matter; exempt.
func GoodMapCopy(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// BadEarlyReturn picks an arbitrary entry. (map-iteration)
func BadEarlyReturn(m map[string]int) string {
	for k, v := range m {
		if v > 0 {
			return k
		}
	}
	return ""
}

// BadBuilder emits output in map order. (map-iteration)
func BadBuilder(m map[string]int) string {
	var b strings.Builder
	for k := range m {
		b.WriteString(k)
	}
	return b.String()
}

// BadSend delivers values in map order. (map-iteration)
func BadSend(m map[string]int, ch chan string) {
	for k := range m {
		ch <- k
	}
}

// BadWallClock stamps results with the current time. (wall-clock)
func BadWallClock() int64 {
	now := time.Now()
	return now.Unix()
}

// GoodElapsed measures a duration: exempt.
func GoodElapsed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// BadGlobalRand draws from the unseeded global source. (randomness)
func BadGlobalRand() int {
	return rand.Intn(10)
}

// GoodSeededRand derives everything from a caller seed: exempt.
func GoodSeededRand(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(10)
}
