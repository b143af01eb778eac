// Package tensor provides the minimal dense linear-algebra substrate used
// by the rest of the repository: float32 vectors and row-major matrices,
// a deterministic seeded random number generator, and the reductions and
// selection routines (top-k, quantiles) that the sparsity schemes build on.
//
// Everything is pure Go and single-allocation-conscious: matvec and the
// masked variants are the inner loops of both training and the hardware
// simulator, so they avoid bounds-check-hostile patterns and interface
// indirection.
package tensor

import "math"

// RNG is a PCG-XSH-RR 64/32 pseudo-random generator. It is deterministic
// for a given seed across platforms, which the experiment drivers rely on
// to make every table and figure reproducible bit-for-bit.
type RNG struct {
	state uint64
	inc   uint64
	// cached spare normal variate for Box-Muller
	hasSpare bool
	spare    float64
}

// NewRNG returns a generator seeded with seed. Distinct seeds give
// independent streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{inc: (seed << 1) | 1}
	r.state = seed + 0x9E3779B97F4A7C15
	r.Uint32()
	r.state += seed
	r.Uint32()
	return r
}

// Uint32 returns the next 32 uniformly distributed bits.
func (r *RNG) Uint32() uint32 {
	old := r.state
	r.state = old*6364136223846793005 + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	return uint64(r.Uint32())<<32 | uint64(r.Uint32())
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn called with n <= 0")
	}
	// Lemire's multiply-shift rejection method.
	bound := uint32(n)
	threshold := -bound % bound
	for {
		x := r.Uint32()
		m := uint64(x) * uint64(bound)
		if uint32(m) >= threshold {
			return int(m >> 32)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1). The conversion rounds the
// scaling product, so a caller's add cannot fuse into it on arm64.
func (r *RNG) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// Norm returns a standard normal variate via Box-Muller.
func (r *RNG) Norm() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = float64(2*r.Float64()) - 1
		v = float64(2*r.Float64()) - 1
		s = float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			break
		}
	}
	mul := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * mul
	r.hasSpare = true
	return u * mul
}

// NormFloat32 returns a standard normal variate as float32.
func (r *RNG) NormFloat32() float32 { return float32(r.Norm()) }

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Split returns a new generator whose stream is independent of r's, derived
// from r's state plus a salt. Used to give each model component its own
// stream so adding a component never perturbs another's initialization.
func (r *RNG) Split(salt uint64) *RNG {
	return NewRNG(r.Uint64() ^ (salt * 0x9E3779B97F4A7C15))
}
