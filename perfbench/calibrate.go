package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// The host this benchmark runs on changes speed under it: on a shared
// 2-vCPU microVM the simulator's frames per CPU second doubled within
// half an hour, with the code unchanged. So every iteration first
// times a fixed reference kernel, independent of the program, and CPU
// times are also reported in reference seconds: CPU time scaled by
// refSeconds over the kernel's CPU time. A host that runs everything
// twice as fast halves both, and the scaled time stays put.

// refRounds is the reference kernel's fixed amount of work.
const refRounds = 4000

// refSeconds is the CPU time one kernel run counts as: a reference
// second is the CPU time of 1/refSeconds = 100 kernel runs, close to a
// real second on the reference host (2 vCPUs of a Xeon microVM) at its
// fastest.
const refSeconds = 0.01

// refSink keeps the kernel's result alive so the compiler cannot drop
// its work.
var refSink float64

// refKernel is the fixed reference work: a mix like the simulator's,
// of rasterising boxes into a bitset and counting it, hashing to
// floats, exp and sqrt, sorting and small allocations. It must never
// change, or reference seconds stop being comparable across commits.
func refKernel() {
	var x uint64 = 0x9e3779b97f4a7c15
	next := func() uint64 { // splitmix64
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	const nx, ny = 156, 47 // a 1242x375 frame in 8-pixel cells
	mask := make([]uint64, (nx*ny+63)/64)
	acc := 0.0
	for r := 0; r < refRounds; r++ {
		for i := range mask {
			mask[i] = 0
		}
		boxes := make([][4]int, 0, 16)
		for b := 0; b < 12; b++ {
			x0, y0 := int(next()%nx), int(next()%ny)
			x1, y1 := x0+1+int(next()%20), y0+1+int(next()%12)
			boxes = append(boxes, [4]int{x0, y0, min(nx, x1), min(ny, y1)})
		}
		for _, b := range boxes {
			for cy := b[1]; cy < b[3]; cy++ {
				for cx := b[0]; cx < b[2]; cx++ {
					i := cy*nx + cx
					mask[i/64] |= 1 << (i % 64)
				}
			}
		}
		n := 0
		for _, w := range mask {
			n += bits.OnesCount64(w)
		}
		scores := make([]float64, 24)
		for i := range scores {
			u := float64(next()>>11) / (1 << 53)
			scores[i] = 1 / (1 + math.Exp(-4*(u-0.5)+float64(n)*1e-4))
		}
		sort.Float64s(scores)
		best := math.Inf(1)
		for i := 0; i < 8; i++ {
			s := 0.0
			for j := 0; j < 8; j++ {
				s += math.Sqrt(float64((i-j)*(i-j)) + scores[i+j])
			}
			best = math.Min(best, s)
		}
		acc += best + float64(n)
	}
	refSink += acc
}

// calibrate is the process CPU time of one reference kernel run.
func calibrate() time.Duration {
	t0 := cpuTime()
	refKernel()
	return cpuTime() - t0
}

// refScale converts CPU time measured next to a kernel run of ref into
// reference seconds.
func refScale(cpu, ref time.Duration) float64 {
	return cpu.Seconds() * refSeconds / ref.Seconds()
}
