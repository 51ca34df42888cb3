package main

import "math/bits"

// hist is a log-linear latency histogram over nanoseconds: exact below
// 2^subBits ns, then 2^subBits buckets per power of two (under 2% relative
// width), up to 2^maxBits ns (about 18 minutes; longer values land in the
// top bucket). Its memory is fixed and small, so the benchmark's own
// footprint does not grow with the throughput it measures, and every
// quarter-second slice of a window can keep one per op code.
type hist struct {
	counts [(maxBits - subBits + 1) << subBits]uint32
	n      uint64
}

const (
	subBits = 6
	maxBits = 40
)

func bucketOf(v uint64) int {
	if v < 1<<subBits {
		return int(v)
	}
	v = min(v, 1<<maxBits-1)
	shift := bits.Len64(v) - subBits - 1
	top := v >> shift // in [2^subBits, 2^(subBits+1))
	return (shift+1)<<subBits + int(top-1<<subBits)
}

// bucketRange returns bucket i's lower bound and width.
func bucketRange(i int) (lo, width float64) {
	if i < 1<<subBits {
		return float64(i), 1
	}
	shift := i>>subBits - 1
	top := uint64(i&(1<<subBits-1)) + 1<<subBits
	return float64(top << shift), float64(uint64(1) << shift)
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, interpolating by rank
// inside the bucket that holds it. It returns 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(cum+uint64(c)) > rank {
			lo, width := bucketRange(i)
			return lo + (rank-float64(cum)+0.5)/float64(c)*width
		}
		cum += uint64(c)
	}
	lo, width := bucketRange(len(h.counts) - 1)
	return lo + width
}
