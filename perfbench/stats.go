package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// cpuTime is the process's user+system CPU time so far, summed over
// every thread (getrusage RUSAGE_SELF), so work the engine fans out to
// step workers and the garbage collector's background marking are both
// charged.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF with a valid pointer cannot fail on Linux.
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPU is the calling OS thread's CPU time.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		// A valid clock id and pointer cannot fail on Linux.
		panic(fmt.Sprintf("clock_gettime: %v", errno))
	}
	return time.Duration(ts.Nano())
}

// tailLevels are the percentiles the tail helper may report, highest
// first.
var tailLevels = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// rank is the 1-based nearest-rank index of the q-th percentile of n
// samples: ceil(q/100*n), at least 1. The slack keeps a product that
// is whole in decimal, such as 99.9% of 10000, from rounding up a rank
// because 99.9 has no exact binary form.
func rank(q float64, n int) int {
	r := int(math.Ceil(q*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// tailLevel is the highest percentile in tailLevels that has at least
// ten samples beyond it among n, and false when even the median has
// fewer than ten.
func tailLevel(n int) (float64, bool) {
	for _, q := range tailLevels {
		if n-rank(q, n) >= 10 {
			return q, true
		}
	}
	return 0, false
}

// percentile is the nearest-rank q-th percentile of samples (q in
// (0,100]); 0 for no samples. The input is not modified.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank(q, len(s))-1]
}

// midpoint is the median that averages the two middle samples of an
// even count, so two runs of a world count equally.
func midpoint(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// digest is the hex SHA-256 of v's JSON encoding. encoding/json writes
// floats in their shortest round-trip form and map keys sorted, so two
// results share a digest exactly when every field is bit-identical.
func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
