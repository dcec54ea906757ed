package res

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCPUString(t *testing.T) {
	cases := []struct {
		in   CPU
		want string
	}{
		{500, "500MHz"},
		{1000, "1.00GHz"},
		{4500, "4.50GHz"},
		{0, "0MHz"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("CPU(%v).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestMemoryString(t *testing.T) {
	cases := []struct {
		in   Memory
		want string
	}{
		{512, "512MB"},
		{1 * GB, "1GB"},
		{16 * GB, "16GB"},
		{1536, "1.5GB"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Memory(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestClamp(t *testing.T) {
	if got := Clamp(5, 0, 10); got != 5 {
		t.Errorf("Clamp(5,0,10) = %v", got)
	}
	if got := Clamp(-1, 0, 10); got != 0 {
		t.Errorf("Clamp(-1,0,10) = %v", got)
	}
	if got := Clamp(11, 0, 10); got != 10 {
		t.Errorf("Clamp(11,0,10) = %v", got)
	}
}

func TestClampPanicsOnInvertedRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Clamp with lo > hi did not panic")
		}
	}()
	Clamp(1, 10, 0)
}

func TestMinMax(t *testing.T) {
	if Min(1, 2) != 1 || Min(2, 1) != 1 {
		t.Error("Min broken")
	}
}

func TestAlmostEqual(t *testing.T) {
	if !AlmostEqual(1000, 1000+1e-9) {
		t.Error("AlmostEqual rejects tiny absolute difference")
	}
	if AlmostEqual(1000, 1001) {
		t.Error("AlmostEqual accepts 0.1% difference")
	}
	if !AlmostEqual(0, 0) {
		t.Error("AlmostEqual(0,0) = false")
	}
	big := CPU(4.5e5)
	if !AlmostEqual(big, big*(1+1e-9)) {
		t.Error("AlmostEqual rejects 1e-9 relative difference at scale")
	}
}

func TestWorkSeconds(t *testing.T) {
	w := WorkFor(4500, 10) // 45000 MHz·s
	if got := w.Seconds(4500); math.Abs(got-10) > 1e-12 {
		t.Errorf("Seconds = %v, want 10", got)
	}
	if got := w.Seconds(0); !math.IsInf(got, 1) {
		t.Errorf("Seconds at zero CPU = %v, want +Inf", got)
	}
}

func TestWorkSecondsPanicsOnNegativeCPU(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Seconds with negative CPU did not panic")
		}
	}()
	Work(10).Seconds(-1)
}

func TestWorkForPanicsOnNegativeDuration(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WorkFor with negative duration did not panic")
		}
	}()
	WorkFor(100, -1)
}

// Property: work round-trips through Seconds for any positive rate and
// duration.
func TestWorkRoundTrip(t *testing.T) {
	f := func(rate uint16, secs uint32) bool {
		c := CPU(rate%10000) + 1
		s := float64(secs%100000)/10 + 0.1
		w := WorkFor(c, s)
		return math.Abs(w.Seconds(c)-s) < 1e-9*s
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: Clamp always returns a value inside [lo, hi].
func TestClampProperty(t *testing.T) {
	f := func(a, b, c int16) bool {
		lo, hi := CPU(a), CPU(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		got := Clamp(CPU(c), lo, hi)
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}
