package numeric

import (
	"math"
	"math/rand"
	"testing"
)

// monotoneFn draws a random function that is non-decreasing in floating
// point, not just in exact arithmetic: a fixed-order sum of components
// built only from operations whose rounding is monotone. kinds selects
// the component mix: 'l' linear, 'c' curved (signed square), 'r' ramp
// (flat, slope, flat: two kinks), 's' step.
func monotoneFn(rng *rand.Rand, kinds string, lo, hi float64) func(float64) float64 {
	type comp struct {
		kind      byte
		k1, k2, h float64
	}
	at := func() float64 { return lo + (hi-lo)*rng.Float64() }
	var comps []comp
	for n := 1 + rng.Intn(6); n > 0; n-- {
		c := comp{kind: kinds[rng.Intn(len(kinds))], k1: at(), h: math.Ldexp(rng.Float64(), rng.Intn(40)-10)}
		c.k2 = at()
		if c.k2 < c.k1 {
			c.k1, c.k2 = c.k2, c.k1
		}
		if c.k2 == c.k1 {
			c.k2 = c.k1 + 1
		}
		comps = append(comps, c)
	}
	return func(x float64) float64 {
		var sum float64
		for _, c := range comps {
			switch c.kind {
			case 'l':
				sum += c.h * x
			case 'c':
				d := x - c.k1
				sum += c.h * math.Copysign(d*d, d)
			case 'r':
				sum += c.h * Clamp01((x-c.k1)/(c.k2-c.k1))
			case 's':
				if x >= c.k1 {
					sum += c.h
				}
			}
		}
		return sum
	}
}

// counted wraps f with a call counter.
func counted(f func(float64) float64, n *int) func(float64) float64 {
	return func(x float64) float64 { *n++; return f(x) }
}

// replayCase runs both bisections on one input and checks that the
// replay returns BisectMonotone's exact bits within its call budget.
// It returns the two call counts.
func replayCase(t *testing.T, f func(float64) float64, target, lo, hi, tol, slack float64) (plain, replay int) {
	t.Helper()
	want := BisectMonotone(counted(f, &plain), target, lo, hi, tol)
	got := BisectReplay(counted(f, &replay), target, lo, hi, tol, slack)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("BisectReplay(target %v, [%v, %v], tol %v) = %v (%#x), BisectMonotone %v (%#x)",
			target, lo, hi, tol, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if replay > plain+replayDebt {
		t.Fatalf("target %v [%v, %v] tol %v: %d calls, BisectMonotone %d + debt %d",
			target, lo, hi, tol, replay, plain, replayDebt)
	}
	return plain, replay
}

// TestBisectReplayMatchesBisectMonotone pins the replay's contract over
// random monotone functions with flats, kinks, steps and both saturated
// ends: the same float64 bits as BisectMonotone and never more than
// replayDebt extra calls. Families with a continuous part must need at
// most half of bisection's calls in total. On pure step functions no
// probe can beat the midpoint, so there the pin is a 15 % ceiling on
// what the probes may cost.
func TestBisectReplayMatchesBisectMonotone(t *testing.T) {
	for _, fam := range []struct {
		name, kinds string
		maxShare    float64 // replay calls / bisection calls, in total
	}{
		{"smooth", "lc", 0.5},
		{"kinks", "lr", 0.5},
		{"flats-kinks-curves", "lcr", 0.5},
		{"mixed", "lcrs", 0.6},
		{"steps", "s", 1.15},
	} {
		rng := rand.New(rand.NewSource(int64(len(fam.kinds)) * 7919))
		var plain, replay int
		for i := 0; i < 400; i++ {
			lo := math.Ldexp(rng.NormFloat64(), rng.Intn(20)-5)
			hi := lo + math.Ldexp(rng.Float64(), rng.Intn(20)-5)
			f := monotoneFn(rng, fam.kinds, lo, hi)
			flo, fhi := f(lo), f(hi)
			var target float64
			switch i % 10 {
			case 0:
				target = fhi + 1 // saturates at hi
			case 1:
				target = flo - 1 // saturates at lo
			case 2:
				target = f(lo + (hi-lo)*rng.Float64()) // lands on a value, maybe a flat
			default:
				target = flo + (fhi-flo)*rng.Float64()
			}
			tol := []float64{0, 1e-9, 1e-12, (hi - lo) * 1e-6}[rng.Intn(4)]
			p, r := replayCase(t, f, target, lo, hi, tol, 0)
			plain += p
			replay += r
		}
		share := float64(replay) / float64(plain)
		t.Logf("%-18s replay %5d calls, bisection %5d (%.2f)", fam.name, replay, plain, share)
		if share > fam.maxShare {
			t.Errorf("%s: replay made %.2f of bisection's calls, want <= %.2f", fam.name, share, fam.maxShare)
		}
	}
}

// TestBisectReplayEdges covers the inputs where the replay has nothing
// to replay: a point interval, bounds exhausted in float64, infinite
// bounds, and the panics, which must be BisectMonotone's.
func TestBisectReplayEdges(t *testing.T) {
	id := func(x float64) float64 { return x }
	next := math.Nextafter(1, 2)
	for _, c := range []struct{ target, lo, hi, tol float64 }{
		{0.5, 1, 1, 1e-9},
		{1.5, 1, next, 0},
		{1, 1, next, 1e-300},
		{0, math.Inf(-1), math.Inf(1), 1e-9},
		{3, 0, math.Inf(1), 1e-9},
		{-3, math.Inf(-1), 0, 1e-9},
		{0.25, 0, 1, math.NaN()},
		{math.Inf(1), 0, 1, 1e-9},
	} {
		replayCase(t, id, c.target, c.lo, c.hi, c.tol, 0)
	}
	for _, c := range []struct{ lo, hi float64 }{{5, 1}, {math.NaN(), 1}, {0, math.NaN()}} {
		for name, bisect := range map[string]func(func(float64) float64, float64, float64, float64, float64) float64{
			"BisectMonotone": BisectMonotone,
			"BisectReplay": func(f func(float64) float64, target, lo, hi, tol float64) float64 {
				return BisectReplay(f, target, lo, hi, tol, 0)
			},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s on [%v, %v] did not panic", name, c.lo, c.hi)
					}
				}()
				bisect(id, 0, c.lo, c.hi, 1e-9)
			}()
		}
	}
}

// FuzzBisectReplay checks BisectReplay against BisectMonotone on a
// fuzzed monotone function (drawn from seed), interval, target and
// tolerance: same panics, same bits, at most replayDebt extra calls.
// Seed corpus in testdata/fuzz/FuzzBisectReplay.
func FuzzBisectReplay(f *testing.F) {
	f.Add(int64(1), "lcrs", 0.3, -1.0, 1.0, 1e-9)
	f.Fuzz(func(t *testing.T, seed int64, kinds string, target, lo, hi, tol float64) {
		if kinds == "" {
			kinds = "l"
		}
		// Components sit inside the interval when it is finite, else in
		// [-1, 1]; either way fn is monotone on the whole line.
		dlo, dhi := lo, hi
		if w := hi - lo; math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 {
			dlo, dhi = -1, 1
		}
		fn := monotoneFn(rand.New(rand.NewSource(seed)), kinds, dlo, dhi)
		panics := func(bisect func(func(float64) float64, float64, float64, float64, float64) float64) (p bool) {
			defer func() { p = recover() != nil }()
			bisect(fn, target, lo, hi, tol)
			return false
		}
		replay := func(f func(float64) float64, target, lo, hi, tol float64) float64 {
			return BisectReplay(f, target, lo, hi, tol, 0)
		}
		pm, pr := panics(BisectMonotone), panics(replay)
		if pm != pr {
			t.Fatalf("BisectMonotone panics %v, BisectReplay %v", pm, pr)
		}
		if !pm {
			replayCase(t, fn, target, lo, hi, tol, 0)
		}
	})
}

// TestBisectReplaySlack gives the replay functions that step down, by
// less than slack/2, the way a rounded sum of rounded demands can: a
// monotone function plus a deterministic sawtooth. With that slack the
// replay must still match BisectMonotone bit for bit and stay within
// its call budget.
func TestBisectReplaySlack(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var plain, replay int
	for i := 0; i < 400; i++ {
		lo, hi := -1.0, 1.0
		smooth := monotoneFn(rng, "lcr", lo, hi)
		amp := math.Ldexp(1, -rng.Intn(30))
		f := func(x float64) float64 {
			// A step-down of up to amp every 2^-20 of x.
			frac := x*(1<<20) - math.Floor(x*(1<<20))
			return smooth(x) - amp*frac
		}
		target := f(lo) + (f(hi)-f(lo))*rng.Float64()
		slack := 2*amp + 4*math.Abs(target)*0x1p-52
		p, r := replayCase(t, f, target, lo, hi, 1e-9, slack)
		plain += p
		replay += r
	}
	t.Logf("replay %d calls, bisection %d", replay, plain)
}
