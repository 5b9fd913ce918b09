// Package rng provides small, fast, deterministic pseudo-random number
// generators used throughout the rSLPA implementation.
//
// Community detection by label propagation is a randomized process; the
// incremental Correction Propagation algorithm additionally requires that a
// kept label "can still be treated as uniformly picked" after graph changes.
// Both concerns are easiest to reason about (and to test) when every random
// decision is drawn from an explicitly seeded, splittable generator:
//
//   - splitmix64 is used to derive independent stream seeds from a
//     (seed, vertex, iteration) triple, so results do not depend on the
//     number of partitions or on goroutine scheduling.
//   - xoshiro256** is the workhorse generator for each stream.
//
// All bounded-integer draws use Lemire-style rejection so they are exactly
// uniform (no modulo bias); exact uniformity matters because the paper's
// Theorems 2-5 argue about exactly uniform picks.
package rng

import "math/bits"

// SplitMix64 advances a splitmix64 state and returns the next output.
// It is the standard seeding/stream-splitting function recommended for
// xoshiro-family generators.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 hashes x to a well-distributed 64-bit value (one splitmix64 step
// with x as the state). It is used to combine seeds with vertex IDs and
// iteration numbers into independent stream seeds.
func Mix64(x uint64) uint64 {
	return SplitMix64(&x)
}

// Source is a xoshiro256** pseudo-random generator. The zero value is not
// usable; construct with New. Source is not safe for concurrent use; each
// goroutine (or each vertex stream) should own its own Source.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via splitmix64, guaranteeing a
// non-degenerate internal state for any seed value (including zero).
func New(seed uint64) *Source {
	var src Source
	src.Seed(seed)
	return &src
}

// Seed resets the generator state from seed.
func (r *Source) Seed(seed uint64) {
	state := seed
	for i := range r.s {
		r.s[i] = SplitMix64(&state)
	}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9

	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)

	return result
}

// Intn returns an exactly uniform integer in [0, n). It panics if n <= 0,
// matching math/rand semantics.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns an exactly uniform integer in [0, n) using Lemire's
// multiply-shift method with rejection. It panics if n == 0.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		// Rejection zone: resample until the low product clears the
		// threshold, which guarantees exact uniformity.
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns a uniform random boolean.
func (r *Source) Bool() bool {
	return r.Uint64()&1 == 1
}

// Perm returns a uniform random permutation of [0, n), like rand.Perm.
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap, like
// rand.Shuffle.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
