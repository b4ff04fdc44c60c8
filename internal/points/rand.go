package points

import "math"

// Rand is a small deterministic pseudo-random generator (splitmix64 core)
// used everywhere the repository needs reproducible randomness: dataset
// generation, LSH function draws, sampling jobs, K-means initialization.
//
// math/rand would work, but its stream is not guaranteed stable across Go
// releases for all helpers; tests here assert exact values, so we own the
// generator. It is NOT for cryptographic use.
type Rand struct {
	state uint64
	// cached second value from the Box–Muller pair
	gauss    float64
	hasGauss bool
}

// NewRand returns a generator seeded deterministically from seed.
func NewRand(seed int64) *Rand {
	r := &Rand{state: uint64(seed)*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9}
	// Warm up so nearby seeds diverge immediately.
	r.Uint64()
	r.Uint64()
	return r
}

// Uint64 returns the next 64 pseudo-random bits (splitmix64).
func (r *Rand) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). Panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("points: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate via Box–Muller.
func (r *Rand) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	var u, v float64
	for {
		u = r.Float64()
		if u > 0 {
			break
		}
	}
	v = r.Float64()
	radius := math.Sqrt(-2 * math.Log(u))
	theta := 2 * math.Pi * v
	r.gauss = radius * math.Sin(theta)
	r.hasGauss = true
	return radius * math.Cos(theta)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
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

// Shuffle pseudo-randomly reorders n elements using the provided swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
