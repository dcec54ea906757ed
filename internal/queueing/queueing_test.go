package queueing

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"slaplace/internal/res"
)

func TestMG1PSBasics(t *testing.T) {
	m, err := NewMG1PS(1350, 4500) // S = 0.3 s
	if err != nil {
		t.Fatalf("NewMG1PS: %v", err)
	}
	if got := m.MinRT(); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("MinRT = %v, want 0.3", got)
	}
	// Unloaded: RT equals the floor.
	if got := m.ResponseTime(0, 100000); got != 0.3 {
		t.Errorf("RT at lambda=0 = %v, want 0.3", got)
	}
	// ρ = 0.5: RT = S/(1-ρ) = 0.6.
	lambda := 10.0 // λ·d = 13500
	if got := m.ResponseTime(lambda, 27000); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("RT at rho=0.5 = %v, want 0.6", got)
	}
	// Unstable at alloc = λ·d.
	if got := m.ResponseTime(lambda, 13500); !math.IsInf(got, 1) {
		t.Errorf("RT at rho=1 = %v, want +Inf", got)
	}
	if got := m.ResponseTime(lambda, 0); !math.IsInf(got, 1) {
		t.Errorf("RT at zero alloc = %v, want +Inf", got)
	}
}

func TestMG1PSValidation(t *testing.T) {
	if _, err := NewMG1PS(0, 4500); err == nil {
		t.Error("zero demand accepted")
	}
	if _, err := NewMG1PS(100, 0); err == nil {
		t.Error("zero core speed accepted")
	}
}

func TestMG1PSInverse(t *testing.T) {
	m, _ := NewMG1PS(1350, 4500)
	lambda := 100.0
	for _, rt := range []float64{0.35, 0.5, 1.0, 3.0} {
		d := m.DemandFor(lambda, rt)
		got := m.ResponseTime(lambda, d)
		if math.Abs(got-rt) > 1e-9*rt {
			t.Errorf("round trip RT %v -> demand %v -> RT %v", rt, d, got)
		}
	}
	// Below the floor the demand is infinite.
	if d := m.DemandFor(lambda, 0.2); !math.IsInf(float64(d), 1) {
		t.Errorf("DemandFor below floor = %v, want +Inf", d)
	}
	if d := m.DemandFor(0, 1.0); d != 0 {
		t.Errorf("DemandFor at lambda=0 = %v, want 0", d)
	}
}

func TestMG1PSMonotoneInAllocation(t *testing.T) {
	m, _ := NewMG1PS(1350, 4500)
	lambda := 50.0
	prev := math.Inf(1)
	for alloc := res.CPU(70000); alloc <= 400000; alloc += 10000 {
		rt := m.ResponseTime(lambda, alloc)
		if rt > prev+1e-12 {
			t.Fatalf("RT increased with allocation at %v: %v > %v", alloc, rt, prev)
		}
		prev = rt
	}
}

// Property: for random stable operating points, DemandFor inverts
// ResponseTime.
func TestMG1PSInverseProperty(t *testing.T) {
	m, _ := NewMG1PS(1000, 4000)
	f := func(lr, rr uint16) bool {
		lambda := float64(lr%500) + 1
		rt := m.MinRT() * (1.001 + float64(rr)/1000)
		d := m.DemandFor(lambda, rt)
		back := m.ResponseTime(lambda, d)
		return math.Abs(back-rt) < 1e-6*rt
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestMM1(t *testing.T) {
	m := MM1{DemandMHzs: 1000}
	// Ω=2000, λ=1: RT = 1000/(2000-1000) = 1 s.
	if got := m.ResponseTime(1, 2000); math.Abs(got-1) > 1e-12 {
		t.Errorf("MM1 RT = %v, want 1", got)
	}
	if got := m.ResponseTime(1, 1000); !math.IsInf(got, 1) {
		t.Errorf("MM1 RT at saturation = %v", got)
	}
	d := m.DemandFor(1, 1)
	if math.Abs(float64(d)-2000) > 1e-9 {
		t.Errorf("MM1 DemandFor = %v, want 2000", d)
	}
	if m.MinRT() != 0 {
		t.Errorf("MM1 MinRT = %v, want 0", m.MinRT())
	}
}

func TestErlangC(t *testing.T) {
	// Known value: c=1 reduces to M/M/1 wait probability = rho.
	if got := erlangC(1, 0.5); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("erlangC(1, 0.5) = %v, want 0.5", got)
	}
	// c=2, a=1: C = 1/3 (textbook).
	if got := erlangC(2, 1); math.Abs(got-1.0/3) > 1e-9 {
		t.Errorf("erlangC(2, 1) = %v, want 1/3", got)
	}
	if got := erlangC(2, 2.5); got != 1 {
		t.Errorf("erlangC unstable = %v, want 1", got)
	}
	if got := erlangC(3, 0); got != 0 {
		t.Errorf("erlangC with no load = %v, want 0", got)
	}
}

func TestMMcBasics(t *testing.T) {
	m := MMc{DemandMHzs: 4500, CoreSpeed: 4500} // S = 1 s
	if got := m.MinRT(); got != 1 {
		t.Errorf("MinRT = %v", got)
	}
	// Plenty of servers: RT ≈ S.
	rt := m.ResponseTime(1, 45000) // 10 servers, a=1
	if rt < 1 || rt > 1.05 {
		t.Errorf("lightly loaded M/M/c RT = %v, want ≈1", rt)
	}
	// Saturated: +Inf.
	if got := m.ResponseTime(2, 4500); !math.IsInf(got, 1) {
		t.Errorf("RT with a=2, c=1 = %v, want +Inf", got)
	}
}

func TestMMcMonotoneAndInverse(t *testing.T) {
	m := MMc{DemandMHzs: 1350, CoreSpeed: 4500}
	lambda := 50.0
	prev := math.Inf(1)
	for alloc := res.CPU(68000); alloc <= 300000; alloc += 4000 {
		rt := m.ResponseTime(lambda, alloc)
		if rt > prev*(1+1e-9) {
			t.Fatalf("MMc RT increased with allocation at %v: %v > %v", alloc, rt, prev)
		}
		prev = rt
	}
	for _, rt := range []float64{0.35, 0.5, 1.5} {
		d := m.DemandFor(lambda, rt)
		back := m.ResponseTime(lambda, d)
		if math.Abs(back-rt) > 1e-3*rt {
			t.Errorf("MMc inverse: want RT %v, got %v (demand %v)", rt, back, d)
		}
	}
}

func TestWeightedRTEqualSplitMatchesFluid(t *testing.T) {
	m, _ := NewMG1PS(1350, 4500)
	lambda := 100.0
	// For MG1PS with proportional balancing, per-instance RT depends
	// only on total utilization, so the weighted RT equals the fluid RT.
	total := res.CPU(200000)
	allocs := []res.CPU{50000, 50000, 50000, 50000}
	fluid := m.ResponseTime(lambda, total)
	got := WeightedRT(m, lambda, allocs)
	if math.Abs(got-fluid) > 1e-9 {
		t.Errorf("WeightedRT = %v, fluid = %v", got, fluid)
	}
	// Uneven split too: proportional balancing equalizes utilization.
	allocs = []res.CPU{100000, 60000, 40000}
	got = WeightedRT(m, lambda, allocs)
	if math.Abs(got-fluid) > 1e-9 {
		t.Errorf("WeightedRT uneven = %v, fluid = %v", got, fluid)
	}
}

func TestWeightedRTEdgeCases(t *testing.T) {
	m, _ := NewMG1PS(1350, 4500)
	if got := WeightedRT(m, 0, nil); got != m.MinRT() {
		t.Errorf("no load: %v, want floor", got)
	}
	if got := WeightedRT(m, 5, []res.CPU{0, 0}); !math.IsInf(got, 1) {
		t.Errorf("load with zero capacity: %v, want +Inf", got)
	}
	// Zero-alloc instances are skipped, not poison.
	if got := WeightedRT(m, 5, []res.CPU{0, 50000}); math.IsInf(got, 1) {
		t.Error("zero-alloc instance poisoned aggregate")
	}
}

func TestNegativeLambdaPanics(t *testing.T) {
	m, _ := NewMG1PS(100, 4500)
	defer func() {
		if recover() == nil {
			t.Fatal("negative lambda did not panic")
		}
	}()
	m.ResponseTime(-1, 1000)
}

func TestStabilityDemandAndUtilization(t *testing.T) {
	m, _ := NewMG1PS(1350, 4500)
	if got := m.StabilityDemand(100); got != 135000 {
		t.Errorf("MG1PS StabilityDemand = %v, want 135000", got)
	}
	if got := m.Utilization(100, 270000); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Utilization = %v, want 0.5", got)
	}
	if got := m.Utilization(0, 1000); got != 0 {
		t.Errorf("idle Utilization = %v", got)
	}
	if got := m.Utilization(10, 0); !math.IsInf(got, 1) {
		t.Errorf("zero-alloc Utilization = %v, want +Inf", got)
	}
	mm1 := MM1{DemandMHzs: 1000}
	if got := mm1.StabilityDemand(3); got != 3000 {
		t.Errorf("MM1 StabilityDemand = %v", got)
	}
	mmc := MMc{DemandMHzs: 1350, CoreSpeed: 4500}
	if got := mmc.StabilityDemand(100); got != 135000 {
		t.Errorf("MMc StabilityDemand = %v", got)
	}
}

func TestMMcEdgeCases(t *testing.T) {
	m := MMc{DemandMHzs: 4500, CoreSpeed: 4500}
	// Zero load, positive capacity: the floor.
	if got := m.ResponseTime(0, 9000); got != 1 {
		t.Errorf("idle MMc RT = %v, want floor 1", got)
	}
	if got := m.ResponseTime(0, 0); !math.IsInf(got, 1) {
		t.Errorf("no capacity MMc RT = %v, want +Inf", got)
	}
	if got := m.ResponseTime(1, 0); !math.IsInf(got, 1) {
		t.Errorf("loaded, no capacity RT = %v", got)
	}
	// Fractional capacity straddling the stability boundary: finite.
	if got := m.ResponseTime(1, 4500*1.5); math.IsInf(got, 1) || got <= 1 {
		t.Errorf("fractional-servers RT = %v, want finite > floor", got)
	}
	// DemandFor with zero lambda.
	if got := m.DemandFor(0, 2); got != 0 {
		t.Errorf("idle DemandFor = %v, want 0", got)
	}
	if got := m.DemandFor(1, 0.5); !math.IsInf(float64(got), 1) {
		t.Errorf("below-floor DemandFor = %v, want +Inf", got)
	}
	mm1 := MM1{DemandMHzs: 1000}
	if got := mm1.DemandFor(1, 0); !math.IsInf(float64(got), 1) {
		t.Errorf("MM1 DemandFor(rt=0) = %v, want +Inf", got)
	}
	if got := mm1.ResponseTime(1, 0); !math.IsInf(got, 1) {
		t.Errorf("MM1 zero-alloc RT = %v", got)
	}
}
