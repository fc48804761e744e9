package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile of sorted: the
// smallest sample with at least p% of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(p, len(sorted))-1]
}

// rank is the 1-based nearest rank of percentile p among n samples. The
// epsilon keeps decimal percentiles such as 99.9 from rounding up a rank.
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return max(1, min(r, n))
}

// tailPercentiles are the candidates for a reported tail, highest first.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// minBeyond is how many samples must rank above a reported percentile:
// fewer and the value is one unlucky sample, not a tail.
const minBeyond = 10

// tail returns the highest candidate percentile that has at least
// minBeyond samples ranked above it, and its value. With too few samples
// for any candidate it reports the maximum as percentile 100.
func tail(sorted []float64) (p, v float64) {
	n := len(sorted)
	for _, p := range tailPercentiles {
		if r := rank(p, n); n-r >= minBeyond {
			return p, sorted[r-1]
		}
	}
	if n == 0 {
		return 100, math.NaN()
	}
	return 100, sorted[n-1]
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS returns the process's resident-set high-water mark (VmHWM) in
// bytes.
func peakRSS() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
		}
		return kb << 10, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// derive maps (seed, stream, i) to a well-mixed 64-bit value
// (splitmix64), so every generated input is a pure function of the
// workload seed and distinct inputs never share a seed.
func derive(seed, stream, i uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + i + 1
	for k := 0; k < 2; k++ {
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return z
}
