package rng

import "math/bits"

// Stream is a tiny splitmix64-based generator intended for "one decision
// site" randomness: the label propagation algorithms derive one Stream per
// (seed, vertex, iteration) triple so that every random pick is a pure
// function of those coordinates. This makes results independent of the
// number of partitions, the scheduling of goroutines, and the order in
// which vertices are processed — the property the distributed/sequential
// equivalence tests rely on.
//
// Stream is a value type; copying it forks the sequence.
type Stream struct {
	state uint64
}

// StreamOf derives an independent Stream from a base seed and up to three
// coordinate values (e.g. epoch, vertex, iteration).
func StreamOf(seed uint64, coords ...uint64) Stream {
	s := Mix64(seed ^ 0x2545f4914f6cdd1d)
	for i, c := range coords {
		s = Mix64(s ^ Mix64(c+uint64(i)*0x9e3779b97f4a7c15))
	}
	return Stream{state: s}
}

// Uint64 returns the next 64 pseudo-random bits.
func (s *Stream) Uint64() uint64 {
	return SplitMix64(&s.state)
}

// Uint64n returns an exactly uniform integer in [0, n); it panics if n == 0.
func (s *Stream) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Stream.Uint64n with zero n")
	}
	// Lemire multiply-shift with rejection, as in Source.Uint64n.
	hi, lo := bits.Mul64(s.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(s.Uint64(), n)
		}
	}
	return hi
}

// Intn returns an exactly uniform integer in [0, n); it panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Stream.Intn with non-positive n")
	}
	return int(s.Uint64n(uint64(n)))
}
