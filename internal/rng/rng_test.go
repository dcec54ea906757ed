package rng

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := NewSource(42).Stream("jobs")
	b := NewSource(42).Stream("jobs")
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with identical (seed,name) diverged at step %d", i)
		}
	}
}

func TestStreamIndependenceByName(t *testing.T) {
	src := NewSource(42)
	a := src.Stream("jobs")
	b := src.Stream("web")
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("distinct streams collided %d/1000 times", same)
	}
}

func TestStreamfMatchesStream(t *testing.T) {
	src := NewSource(7)
	a := src.Streamf("job/%d", 17)
	b := src.Stream("job/17")
	if a.Uint64() != b.Uint64() {
		t.Error("Streamf and Stream with identical names differ")
	}
}

func TestSeedChangesOutput(t *testing.T) {
	a := NewSource(1).Stream("x")
	b := NewSource(2).Stream("x")
	if a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() {
		t.Error("different seeds produced identical outputs")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewSource(1).Stream("f")
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestIntnRangeAndPanic(t *testing.T) {
	r := NewSource(1).Stream("i")
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) out of range: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := NewSource(99).Stream("uniformity")
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("Intn bucket %d: %d draws, want ~%.0f", v, c, want)
		}
	}
}

func TestExpMoments(t *testing.T) {
	r := NewSource(5).Stream("exp")
	const mean, n = 260.0, 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Exp(mean)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
		sumSq += v * v
	}
	gotMean := sum / n
	gotVar := sumSq/n - gotMean*gotMean
	if math.Abs(gotMean-mean)/mean > 0.02 {
		t.Errorf("Exp mean = %v, want ~%v", gotMean, mean)
	}
	if math.Abs(gotVar-mean*mean)/(mean*mean) > 0.05 {
		t.Errorf("Exp variance = %v, want ~%v", gotVar, mean*mean)
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewSource(6).Stream("normal")
	const mu, sigma, n = 100.0, 15.0, 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Normal(mu, sigma)
		sum += v
		sumSq += v * v
	}
	gotMean := sum / n
	gotVar := sumSq/n - gotMean*gotMean
	if math.Abs(gotMean-mu) > 0.5 {
		t.Errorf("Normal mean = %v, want ~%v", gotMean, mu)
	}
	if math.Abs(math.Sqrt(gotVar)-sigma) > 0.5 {
		t.Errorf("Normal stddev = %v, want ~%v", math.Sqrt(gotVar), sigma)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := NewSource(7).Stream("ln")
	for i := 0; i < 10000; i++ {
		if v := r.LogNormal(0, 1); v <= 0 {
			t.Fatalf("LogNormal returned non-positive %v", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewSource(9).Stream("perm")
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid/duplicate element %d", v)
		}
		seen[v] = true
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := NewSource(10).Stream("shuffle")
	xs := []int{1, 2, 3, 4, 5, 6}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, x := range xs {
		got += x
	}
	if got != sum {
		t.Errorf("Shuffle changed multiset: sum %d != %d", got, sum)
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewSource(11).Stream("bool")
	const p, n = 0.3, 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(p) {
			hits++
		}
	}
	if math.Abs(float64(hits)/n-p) > 0.01 {
		t.Errorf("Bool(%v) hit rate %v", p, float64(hits)/n)
	}
}

func TestPanics(t *testing.T) {
	r := NewSource(12).Stream("panics")
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Exp(0)", func() { r.Exp(0) })
	mustPanic("Exp(-1)", func() { r.Exp(-1) })
	mustPanic("Normal stddev<0", func() { r.Normal(0, -1) })
	mustPanic("Uniform inverted", func() { r.Uniform(2, 1) })
	mustPanic("Bool(1.5)", func() { r.Bool(1.5) })
}

// Property: Uniform(lo,hi) stays within [lo,hi).
func TestUniformRangeProperty(t *testing.T) {
	r := NewSource(13).Stream("uni")
	f := func(a, b int16) bool {
		lo, hi := float64(a), float64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo == hi {
			hi = lo + 1
		}
		v := r.Uniform(lo, hi)
		return v >= lo && v < hi
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestPoissonMoments(t *testing.T) {
	r := NewSource(14).Stream("poisson")
	for _, mean := range []float64{0.5, 4, 25, 120} {
		const n = 50000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			v := float64(r.Poisson(mean))
			if v < 0 {
				t.Fatalf("negative Poisson draw %v", v)
			}
			sum += v
			sumSq += v * v
		}
		gotMean := sum / n
		gotVar := sumSq/n - gotMean*gotMean
		if math.Abs(gotMean-mean)/mean > 0.03 {
			t.Errorf("Poisson(%v) mean = %v", mean, gotMean)
		}
		if math.Abs(gotVar-mean)/mean > 0.06 {
			t.Errorf("Poisson(%v) variance = %v, want ≈mean", mean, gotVar)
		}
	}
	if r.Poisson(0) != 0 {
		t.Error("Poisson(0) != 0")
	}
}

func TestPoissonPanicsOnNegativeMean(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewSource(1).Stream("p").Poisson(-1)
}
