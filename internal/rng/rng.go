// Package rng provides deterministic, splittable pseudo-random number
// streams and the distribution samplers used by the workload generators.
//
// Every experiment in this repository must be bit-reproducible from a
// single seed. To keep subsystems independent (adding a sampler call in
// the transactional generator must not perturb the batch arrival
// sequence), each consumer derives a named Stream from the root Source;
// streams with distinct names are statistically independent.
//
// The generator is SplitMix64 seeded through a 64-bit FNV-1a hash of the
// stream name. SplitMix64 passes BigCrush for the output sizes we use
// and requires no state beyond a single uint64, which keeps streams
// cheap and trivially serializable.
package rng

import (
	"fmt"
	"math"
	"math/bits"
)

// Source is the root of a deterministic stream tree. The zero value is
// not usable; construct with NewSource.
type Source struct {
	seed uint64
}

// NewSource returns a Source rooted at the given seed. Two Sources with
// the same seed produce identical stream trees.
func NewSource(seed uint64) *Source {
	return &Source{seed: seed}
}

// Stream derives a named stream. The same (seed, name) pair always
// yields the same sequence; distinct names yield independent sequences.
func (s *Source) Stream(name string) *Stream {
	return &Stream{state: s.seed ^ fnv1a(name) ^ 0x9e3779b97f4a7c15}
}

// Streamf derives a named stream using a printf-style name, convenient
// for per-entity streams such as "job-arrivals/17".
func (s *Source) Streamf(format string, args ...any) *Stream {
	return s.Stream(fmt.Sprintf(format, args...))
}

// fnv1a hashes a string with 64-bit FNV-1a.
func fnv1a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Stream is a deterministic PRNG stream. It is not safe for concurrent
// use; derive one stream per goroutine instead of sharing.
type Stream struct {
	state uint64
	// cached second normal variate from the Box-Muller transform
	hasGauss bool
	gauss    float64
}

// Uint64 returns the next 64 uniformly distributed bits (SplitMix64).
func (r *Stream) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Stream) Float64() float64 {
	// 53 high-quality bits -> [0,1) with full double precision.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method, unbiased.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Uniform returns a uniform float64 in [lo, hi). It panics if hi < lo.
func (r *Stream) Uniform(lo, hi float64) float64 {
	if hi < lo {
		panic(fmt.Sprintf("rng: Uniform with hi %v < lo %v", hi, lo))
	}
	return lo + (hi-lo)*r.Float64()
}

// Exp returns an exponentially distributed variate with the given mean.
// It panics if mean <= 0. This is the inter-arrival sampler used by the
// paper's job stream (mean 260 s).
func (r *Stream) Exp(mean float64) float64 {
	if mean <= 0 {
		panic(fmt.Sprintf("rng: Exp with non-positive mean %v", mean))
	}
	// Inverse CDF; guard against log(0).
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Normal returns a normal variate with the given mean and standard
// deviation (Box-Muller, with the spare variate cached).
func (r *Stream) Normal(mean, stddev float64) float64 {
	if stddev < 0 {
		panic(fmt.Sprintf("rng: Normal with negative stddev %v", stddev))
	}
	if r.hasGauss {
		r.hasGauss = false
		return mean + stddev*r.gauss
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.hasGauss = true
	return mean + stddev*u*f
}

// LogNormal returns a log-normal variate parameterized by the mean and
// standard deviation of the underlying normal.
func (r *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Stream) Perm(n int) []int {
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

// Shuffle permutes the n elements addressed by swap uniformly at random.
func (r *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Bool returns true with probability p. It panics unless 0 <= p <= 1.
func (r *Stream) Bool(p float64) bool {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("rng: Bool with probability %v outside [0,1]", p))
	}
	return r.Float64() < p
}

// Poisson returns a Poisson variate with the given mean (>= 0): Knuth's
// method for small means, a clamped normal approximation for large
// ones. Used to sample per-interval request counts for the
// arrival-rate monitor.
func (r *Stream) Poisson(mean float64) int {
	if mean < 0 {
		panic(fmt.Sprintf("rng: Poisson with negative mean %v", mean))
	}
	if mean == 0 {
		return 0
	}
	if mean < 30 {
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	v := r.Normal(mean, math.Sqrt(mean))
	if v < 0 {
		return 0
	}
	return int(v + 0.5)
}
