package main

import (
	"math"
	"time"
)

// The host may be a virtual machine whose speed drifts by tens of percent
// over minutes as its neighbours load the hardware. Each point is therefore
// preceded by a fixed calibration kernel that does not call the program,
// and host_s and setup_s are rescaled to a host on which that kernel takes
// calRef: a run on a slowed host measures a slower kernel too. On a 2-vCPU
// Xeon VM this cut the spread of host_s over eight npb-htm runs from 0.10
// to 0.07, and of setup_s from 0.04 to 0.014.

// calRef is the calibration kernel's typical time on a 2-vCPU Xeon VM, so
// that host_s reads close to wall seconds there.
const calRef = 7 * time.Millisecond

var (
	calTable = make([]uint64, 1<<21) // 16 MB, beyond the host's caches
	calSink  float64
)

// calibrate runs the fixed kernel, a mix of the kinds of host work the
// simulator does: random reads and writes over a large table, small-map
// updates, floating point and small allocations. It returns its wall time.
func calibrate() time.Duration {
	t0 := time.Now()
	m := make(map[uint64]uint64, 256)
	x, f := uint64(88172645463325252), 0.0
	var keep [][]byte
	n := uint64(len(calTable))
	for i := uint64(0); i < 60_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		calTable[x%n] += i
		m[x&1023] += calTable[(x>>20)%n]
		f += math.Sqrt(float64(i))
		if i%32 == 0 {
			keep = append(keep, make([]byte, 64))
		}
	}
	calSink = f + float64(len(m)+len(keep))
	return time.Since(t0)
}

// speedScale is calRef over the median calibration time of the passes:
// multiplying a host time measured in the run by it gives the time on the
// reference host.
func speedScale(passes []*passResult) float64 {
	var cs []time.Duration
	for _, ps := range passes {
		for _, p := range ps.points {
			cs = append(cs, p.cal)
		}
	}
	return ratio(calRef.Seconds(), medianDuration(cs))
}
