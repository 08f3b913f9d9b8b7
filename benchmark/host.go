package main

import (
	"sync"
	"time"
)

// The machine this benchmark is sized for is a small guest on a shared
// host, and what the host's other guests do changes how fast this one runs:
// by a third to a half, for seconds or for hours, on arithmetic as much as
// on memory (README, "The host factor"). No statistic over the rounds of a
// run steadies a figure the whole run was slow for. So every timed slice is
// taken between two readings of a reference kernel, a fixed piece of
// arithmetic that is not the program's and never changes, and the slice's
// figure is scaled by what the kernel read beside it: a time is reported as
// the time it would have been had the kernel read its nominal value. A
// slower program is slower against the same kernel; a slower host slows
// both.
const (
	// refIterations is the length of one reading, about 2 ms.
	refIterations = 1_000_000
	// refThreads is how many goroutines run the kernel at once: as many as
	// the workloads keep busy, so that a neighbour on either core shows.
	refThreads = 2
	// refNominalMS is what a reading takes on the sizing machine (Xeon
	// 2.1 GHz, 2 vCPUs) when nothing else runs on its host: the second
	// percentile of 10240 readings over eight runs was 1.86 to 1.87 on each
	// workload. It only fixes the scale of the reported times.
	refNominalMS = 1.87
	// refReadings is how many readings one reference point averages.
	refReadings = 4
)

var refSink uint64

// refKernel is eight independent chains of multiplies, shifts and adds: it
// keeps the core's arithmetic units as busy as the sketch's hashing does,
// touches no memory and allocates nothing.
func refKernel(n int) uint64 {
	a, b, c, d, e, f, g, h := uint64(1), uint64(2), uint64(3), uint64(4), uint64(5), uint64(6), uint64(7), uint64(8)
	for i := 0; i < n; i++ {
		a = a*0x9E3779B97F4A7C15 + 1
		b = b*0xBF58476D1CE4E5B9 + 3
		c = c*0x94D049BB133111EB + 5
		d = d*0xD6E8FEB86659FD93 + 7
		e ^= e << 13
		f ^= f >> 7
		g += g<<3 ^ a
		h += h>>5 ^ b
	}
	return a ^ b ^ c ^ d ^ e ^ f ^ g ^ h
}

// hostReading times the kernel on refThreads goroutines at once and returns
// their mean time in milliseconds.
func hostReading() float64 {
	var wg sync.WaitGroup
	var took [refThreads]float64
	var sums [refThreads]uint64
	for i := range took {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			sums[i] = refKernel(refIterations)
			took[i] = ms(time.Since(t0))
		}()
	}
	wg.Wait()
	var total float64
	for i, t := range took {
		total += t
		refSink += sums[i]
	}
	return total / refThreads
}

// hostPoint is one reference point: the mean of refReadings readings, as a
// multiple of the nominal reading. 1 is a host to itself; 1.5 is a host on
// which the kernel takes half as long again.
func hostPoint() float64 {
	var total float64
	for i := 0; i < refReadings; i++ {
		total += hostReading()
	}
	return total / refReadings / refNominalMS
}
