package main

import (
	"sort"
	"time"
)

// The reference kernel measures how fast the machine runs this process's
// code at the moment, so end-to-end times can be stated at a fixed
// reference speed. On shared virtual machines the host's speed drifts
// by tens of percent over minutes: one set of ten noise_batch runs on the
// development VM slid from 888 to 523 ops/s while nothing else changed.
// Scaling each run by the kernel's speed in that same run cancels such
// drift.
//
// The kernel is the benchmark's own code and never calls the program.
// It allocates nothing, so it neither triggers nor assists the program's
// garbage collector. It touches 128 KiB per round, so it feels cache and
// memory contention as well as CPU time. It runs between ops, once a
// second, when the program has nothing in flight. The program's
// collector may still be marking in the background, so the run's speed
// is the median over its ~15 samples, which a few samples that overlap
// a collection do not move.
type refKernel struct {
	buf  []float64
	seed uint64
}

const (
	refLen    = 16384 // floats sorted per round: 128 KiB
	refRounds = 12    // rounds per sample: ~15 ms on the development VM
	// refRoundsPerSec is the kernel's rate at the reference speed: about
	// the median rate of the development VM (2 vCPUs, Go 1.24) with
	// nothing else running, which read 743 and 798 in two 40-sample
	// tries. It only sets the scale: a run at that speed reports what it
	// measured.
	refRoundsPerSec = 800
)

func newRefKernel() *refKernel {
	return &refKernel{buf: make([]float64, refLen), seed: 0x9e3779b97f4a7c15}
}

// rate runs refRounds rounds and returns rounds per second.
func (k *refKernel) rate() float64 {
	start := time.Now()
	for r := 0; r < refRounds; r++ {
		x := k.seed
		for i := range k.buf {
			// xorshift64: a fixed, allocation-free stream.
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			k.buf[i] = float64(x>>11) / (1 << 53)
		}
		sort.Float64s(k.buf)
		k.seed = x
	}
	return refRounds / time.Since(start).Seconds()
}

// speed is the machine's speed relative to the reference during a run:
// the median of the kernel's rates measured across it, over
// refRoundsPerSec. A time measured at speed s is t·s at reference speed,
// and a rate is r/s.
func speed(rates []float64) float64 {
	if len(rates) == 0 {
		return 1
	}
	return median(rates) / refRoundsPerSec
}
