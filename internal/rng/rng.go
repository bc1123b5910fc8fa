// Package rng provides a fast, deterministic pseudo-random number
// generator for simulation workloads.
//
// The generator is xoshiro256** (Blackman & Vigna), seeded through
// splitmix64 so that any 64-bit seed — including zero — yields a
// well-mixed state. Each *Rand is a single stream and is NOT safe for
// concurrent use; concurrent components should each own a stream
// obtained from Split or Jump, which are guaranteed non-overlapping
// for 2^128 draws.
//
// All experiment code in this repository draws randomness exclusively
// from this package so that every figure is reproducible from a seed.
package rng

import "math"

// Rand is a xoshiro256** stream. The zero value is NOT usable; obtain
// streams from New or Split.
type Rand struct {
	s [4]uint64
	// cached second normal variate from Box-Muller, NaN when empty.
	normCache float64
	hasCache  bool
}

// splitmix64 advances *x and returns the next splitmix64 output.
// It is used only for seeding.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a stream seeded from the given 64-bit seed. Distinct
// seeds yield (with overwhelming probability) uncorrelated streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro forbids the all-zero state; splitmix64 of any seed
	// cannot produce four zero outputs, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[3] = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// jumpPoly is the xoshiro256** jump polynomial, equivalent to 2^128
// calls of Uint64.
var jumpPoly = [4]uint64{
	0x180ec6d33cfd0aba, 0xd5a61266f0c9392c,
	0xa9582618e03fc9aa, 0x39abdc4529b1661c,
}

// Jump advances the stream by 2^128 steps in place. Successive Jump
// calls partition the period into non-overlapping substreams.
func (r *Rand) Jump() {
	var s0, s1, s2, s3 uint64
	for _, jp := range jumpPoly {
		for b := 0; b < 64; b++ {
			if jp&(1<<uint(b)) != 0 {
				s0 ^= r.s[0]
				s1 ^= r.s[1]
				s2 ^= r.s[2]
				s3 ^= r.s[3]
			}
			r.Uint64()
		}
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
}

// Split returns a new independent stream: a copy of r jumped forward
// 2^128 steps. r itself is also jumped, so repeated Split calls hand
// out pairwise non-overlapping streams.
func (r *Rand) Split() *Rand {
	child := &Rand{s: r.s}
	child.Jump()
	r.s = child.s
	child.Jump()
	return child
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform float64 in (0, 1): never exactly zero,
// convenient for logarithm-based transforms.
func (r *Rand) Float64Open() float64 {
	for {
		if v := r.Float64(); v > 0 {
			return v
		}
	}
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
// Uses Lemire's multiply-shift rejection method (unbiased).
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Lemire's method: multiply and use the high word, rejecting the
	// small biased region.
	v := r.Uint64()
	hi, lo := mul64(v, n)
	if lo < n {
		thresh := (-n) % n
		for lo < thresh {
			v = r.Uint64()
			hi, lo = mul64(v, n)
		}
	}
	return hi
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return
}

// Int63 returns a non-negative 63-bit random integer.
func (r *Rand) Int63() int64 { return int64(r.Uint64() >> 1) }

// Range returns a uniform float64 in [lo, hi).
func (r *Rand) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1
// (mean 1), via inverse-CDF transform.
func (r *Rand) ExpFloat64() float64 {
	return -math.Log(r.Float64Open())
}

// NormFloat64 returns a standard normal variate using the Box-Muller
// transform, caching the paired variate.
func (r *Rand) NormFloat64() float64 {
	if r.hasCache {
		r.hasCache = false
		return r.normCache
	}
	u1 := r.Float64Open()
	u2 := r.Float64()
	mag := math.Sqrt(-2 * math.Log(u1))
	r.normCache = mag * math.Sin(2*math.Pi*u2)
	r.hasCache = true
	return mag * math.Cos(2*math.Pi*u2)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// TwoDistinct returns two distinct uniform integers in [0, n).
// It panics if n < 2.
func (r *Rand) TwoDistinct(n int) (int, int) {
	if n < 2 {
		panic("rng: TwoDistinct needs n >= 2")
	}
	a := r.Intn(n)
	b := r.Intn(n - 1)
	if b >= a {
		b++
	}
	return a, b
}
