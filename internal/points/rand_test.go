package points

import (
	"math"
	"testing"
)

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds collided %d/100 times", same)
	}
}

// TestNewRandSeedPlusKIsSeedAdvancedKDraws pins what NewRand's seeding
// does: seed s + k replays seed s's stream from its k-th draw on, so two
// seeds a multiple of a generator's draws per item apart draw the same items,
// shifted — 9 draws per point for 8-d blobs (one Intn, eight normals from
// four Box–Muller pairs), whose seeds 1 and 10 share all but one point.
func TestNewRandSeedPlusKIsSeedAdvancedKDraws(t *testing.T) {
	for _, s := range []int64{0, 1, 2, -7, 1 << 40} {
		for _, k := range []int{1, 9, 1000} {
			a, b := NewRand(s), NewRand(s+int64(k))
			for range k {
				a.Uint64()
			}
			for i := 0; i < 64; i++ {
				if x, y := a.Uint64(), b.Uint64(); x != y {
					t.Fatalf("seed %d advanced %d draws and seed %d differ at draw %d: %x, %x", s, k, s+int64(k), i, x, y)
				}
			}
		}
	}
	blobs := func(seed int64) [][8]float64 {
		r := NewRand(seed)
		pts := make([][8]float64, 50)
		for i := range pts {
			c := float64(r.Intn(16))
			for j := range pts[i] {
				pts[i][j] = c + r.NormFloat64()
			}
		}
		return pts
	}
	one, ten := blobs(1), blobs(10)
	for i := range ten[:len(ten)-1] {
		if ten[i] != one[i+1] {
			t.Fatalf("point %d of seed 10 is not point %d of seed 1", i, i+1)
		}
	}
}

func TestRandIntn(t *testing.T) {
	r := NewRand(1)
	counts := make([]int, 10)
	for i := 0; i < 100_000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 8500 || c > 11500 {
			t.Fatalf("Intn(10) bucket %d has %d/100000 draws", v, c)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for Intn(0)")
		}
	}()
	r.Intn(0)
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(2)
	var sum float64
	for i := 0; i < 100_000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
		sum += v
	}
	if mean := sum / 100_000; mean < 0.49 || mean > 0.51 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRand(3)
	n := 200_000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

// TestNormFloat64TwoCallFormula pins the Box–Muller pair to math.Sin and
// math.Cos of the angle, each called on its own: every dataset generator
// draws through NormFloat64, so the pair must not move by a bit.
func TestNormFloat64TwoCallFormula(t *testing.T) {
	for _, seed := range []int64{1, 2, 4} {
		r, ref := NewRand(seed), NewRand(seed)
		for i := 0; i < 1_000_000; i += 2 {
			var u float64
			for u == 0 {
				u = ref.Float64()
			}
			radius, theta := math.Sqrt(-2*math.Log(u)), 2*math.Pi*ref.Float64()
			for k, want := range []float64{radius * math.Cos(theta), radius * math.Sin(theta)} {
				if got := r.NormFloat64(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d draw %d: %v, two-call formula %v", seed, i+k, got, want)
				}
			}
		}
	}
}

func TestPerm(t *testing.T) {
	r := NewRand(4)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("bad permutation: %v", p)
		}
		seen[v] = true
	}
	// A fresh generator with the same seed reproduces it.
	q := NewRand(4).Perm(100)
	for i := range p {
		if p[i] != q[i] {
			t.Fatal("Perm not deterministic")
		}
	}
}

func TestShuffle(t *testing.T) {
	r := NewRand(5)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	orig := append([]int(nil), xs...)
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	sum := 0
	for _, x := range xs {
		sum += x
	}
	if sum != 28 {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
	same := true
	for i := range xs {
		if xs[i] != orig[i] {
			same = false
		}
	}
	if same {
		t.Fatal("shuffle left slice untouched (vanishingly unlikely)")
	}
}
