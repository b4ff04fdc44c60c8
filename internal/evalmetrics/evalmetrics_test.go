package evalmetrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestIdenticalPartitionsScoreOne(t *testing.T) {
	labels := []int{0, 0, 1, 1, 2, 2, 2}
	for name, fn := range map[string]func([]int, []int) (float64, error){
		"ARI": ARI, "NMI": NMI, "purity": Purity,
	} {
		got, err := fn(labels, labels)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(got-1) > 1e-12 {
			t.Fatalf("%s(x,x) = %v, want 1", name, got)
		}
	}
}

// Property: all metrics are invariant to relabeling (permuting cluster
// ids) of the prediction.
func TestMetricsPermutationInvariant(t *testing.T) {
	perm := map[int]int{0: 2, 1: 0, 2: 1, 3: 3}
	f := func(raw []uint8) bool {
		if len(raw) < 4 {
			return true
		}
		truth := make([]int, len(raw))
		pred := make([]int, len(raw))
		renamed := make([]int, len(raw))
		for i, r := range raw {
			truth[i] = int(r) % 3
			pred[i] = int(r>>2) % 4
			renamed[i] = perm[pred[i]]
		}
		for _, fn := range []func([]int, []int) (float64, error){ARI, NMI, Purity} {
			a, err1 := fn(truth, pred)
			b, err2 := fn(truth, renamed)
			if err1 != nil || err2 != nil || math.Abs(a-b) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestARIKnownValue(t *testing.T) {
	// Worked example: truth [0 0 0 1 1 1], pred [0 0 1 1 2 2].
	truth := []int{0, 0, 0, 1, 1, 1}
	pred := []int{0, 0, 1, 1, 2, 2}
	// Contingency: rows {3,3}, cols {2,2,2}; cells: (0,0)=2 (0,1)=1 (1,1)=1 (1,2)=2.
	// sumCells=C(2,2)+C(2,2)=2; sumRows=2*C(3,2)=6; sumCols=3*C(2,2)=3; total=C(6,2)=15.
	// expected=6*3/15=1.2; max=(6+3)/2=4.5; ARI=(2-1.2)/(4.5-1.2)=0.242424...
	got, err := ARI(truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	want := (2.0 - 1.2) / (4.5 - 1.2)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("ARI = %v, want %v", got, want)
	}
}

func TestARIRandomIsNearZero(t *testing.T) {
	// A balanced truth against a hash-scrambled prediction decorrelates
	// pairs.
	n := 4000
	truth := make([]int, n)
	pred := make([]int, n)
	for i := range truth {
		truth[i] = i % 4
		h := uint64(i) * 0x9E3779B97F4A7C15
		h ^= h >> 29
		pred[i] = int(h % 4)
	}
	got, err := ARI(truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got) > 0.05 {
		t.Fatalf("ARI of unrelated partitions = %v, want ~0", got)
	}
}

func TestNMIKnownValues(t *testing.T) {
	// Independent partitions: NMI ~ 0.
	truth := []int{0, 0, 1, 1}
	pred := []int{0, 1, 0, 1}
	got, err := NMI(truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got) > 1e-12 {
		t.Fatalf("NMI of independent = %v", got)
	}
	// One cluster vs many: zero entropy on one side.
	one := []int{0, 0, 0, 0}
	if got, _ := NMI(one, []int{0, 1, 2, 3}); got != 0 {
		t.Fatalf("NMI with zero-entropy side = %v", got)
	}
	if got, _ := NMI(one, one); got != 1 {
		t.Fatalf("NMI of two trivial equal partitions = %v", got)
	}
}

func TestPurity(t *testing.T) {
	truth := []int{0, 0, 0, 1, 1, 2}
	pred := []int{0, 0, 1, 1, 1, 1}
	// Cluster 0: {0,0} majority 2. Cluster 1: {0,1,1,2} majority 2. Purity 4/6.
	got, err := Purity(truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-4.0/6.0) > 1e-12 {
		t.Fatalf("purity = %v", got)
	}
}

func TestNoiseLabelsAreSingletons(t *testing.T) {
	// Two predictions identical except noise markers: the one marking a
	// mislabeled point as noise scores at least as well on purity.
	truth := []int{0, 0, 0, 1, 1, 1}
	wrong := []int{0, 0, 1, 1, 1, 1}
	noise := []int{0, 0, -1, 1, 1, 1}
	pw, err := Purity(truth, wrong)
	if err != nil {
		t.Fatal(err)
	}
	pn, err := Purity(truth, noise)
	if err != nil {
		t.Fatal(err)
	}
	if pn < pw {
		t.Fatalf("noise singleton purity %v < %v", pn, pw)
	}
	// Distinct noise points never land in the same synthetic cluster.
	allNoise := []int{-1, -1, -1, -1, -1, -1}
	if got, _ := ARI(truth, allNoise); got >= 0.2 {
		t.Fatalf("all-noise ARI = %v, want low", got)
	}
}

func TestMetricErrors(t *testing.T) {
	if _, err := ARI([]int{1}, []int{1, 2}); err == nil {
		t.Fatal("want length mismatch error")
	}
	if _, err := NMI(nil, nil); err == nil {
		t.Fatal("want empty error")
	}
	if _, err := ARI([]int{0}, []int{0}); err == nil {
		t.Fatal("want error for single point")
	}
}

func TestTau1(t *testing.T) {
	exact := []float64{1, 2, 3, 4}
	approx := []float64{1, 2, 0, 4}
	got, err := Tau1(exact, approx)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0.75 {
		t.Fatalf("tau1 = %v", got)
	}
	if _, err := Tau1(exact, approx[:2]); err == nil {
		t.Fatal("want length error")
	}
	if _, err := Tau1(nil, nil); err == nil {
		t.Fatal("want empty error")
	}
}

func TestTau2(t *testing.T) {
	exact := []float64{2, 2, 2, 2}
	approx := []float64{2, 2, 1, 1}
	// error = 2, norm = 8, tau2 = 0.75.
	got, err := Tau2(exact, approx)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0.75 {
		t.Fatalf("tau2 = %v", got)
	}
	perfect, _ := Tau2(exact, exact)
	if perfect != 1 {
		t.Fatalf("tau2 perfect = %v", perfect)
	}
	if got, _ := Tau2([]float64{0, 0}, []float64{0, 0}); got != 1 {
		t.Fatalf("tau2 all-zero = %v", got)
	}
	if got, _ := Tau2([]float64{0, 0}, []float64{1, 0}); got != 0 {
		t.Fatalf("tau2 zero-norm error = %v", got)
	}
}

// Property: τ₂ is 1 iff approx equals exact, and underestimates never
// score higher than the exact answer.
func TestTau2Property(t *testing.T) {
	f := func(vals []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		exact := make([]float64, len(vals))
		under := make([]float64, len(vals))
		for i, v := range vals {
			exact[i] = float64(v) + 1
			under[i] = exact[i] / 2
		}
		t1, err1 := Tau2(exact, exact)
		t2, err2 := Tau2(exact, under)
		return err1 == nil && err2 == nil && t1 == 1 && t2 < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIntLabels(t *testing.T) {
	got := IntLabels([]int32{1, -1, 5})
	if len(got) != 3 || got[0] != 1 || got[1] != -1 || got[2] != 5 {
		t.Fatalf("IntLabels = %v", got)
	}
}
