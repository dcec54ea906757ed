package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := New()
	var got []Time
	for _, at := range []Time{30, 10, 20, 10, 5} {
		at := at
		e.At(at, "ev", func(now Time) { got = append(got, now) })
	}
	for e.Step() {
	}
	want := []Time{5, 10, 10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, "tie", func(Time) { order = append(order, i) })
	}
	for e.Step() {
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events fired out of scheduling order: %v", order)
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	e := New()
	var fired Time
	e.At(50, "outer", func(now Time) {
		e.After(25, "inner", func(n Time) { fired = n })
	})
	for e.Step() {
	}
	if fired != 75 {
		t.Errorf("After(25) from t=50 fired at %v, want 75", fired)
	}
}

func TestCancel(t *testing.T) {
	e := New()
	ran := false
	ev := e.At(10, "victim", func(Time) { ran = true })
	if !e.Cancel(ev) {
		t.Error("Cancel returned false for queued event")
	}
	if e.Cancel(ev) {
		t.Error("second Cancel returned true")
	}
	for e.Step() {
	}
	if ran {
		t.Error("cancelled event fired")
	}
}

func TestCancelNilIsFalse(t *testing.T) {
	e := New()
	if e.Cancel(nil) {
		t.Error("Cancel(nil) = true")
	}
}

func TestRunUntilStopsAtHorizon(t *testing.T) {
	e := New()
	fired := 0
	e.At(10, "in", func(Time) { fired++ })
	e.At(200, "out", func(Time) { fired++ })
	e.RunUntil(100)
	if fired != 1 {
		t.Errorf("fired %d events before horizon, want 1", fired)
	}
	if e.Now() != 100 {
		t.Errorf("clock at %v after RunUntil(100)", e.Now())
	}
	if len(e.queue) != 1 {
		t.Errorf("pending = %d, want 1", len(e.queue))
	}
	// Continue past the horizon.
	e.RunUntil(300)
	if fired != 2 {
		t.Errorf("fired %d events total, want 2", fired)
	}
}

func TestRunUntilAdvancesClockWhenQueueEmpty(t *testing.T) {
	e := New()
	e.RunUntil(500)
	if e.Now() != 500 {
		t.Errorf("clock = %v, want 500", e.Now())
	}
}

func TestPeriodic(t *testing.T) {
	e := New()
	var ticks []Time
	e.Periodic(0, 600, "cycle", func(now Time) { ticks = append(ticks, now) })
	e.RunUntil(3000)
	want := []Time{0, 600, 1200, 1800, 2400, 3000}
	if len(ticks) != len(want) {
		t.Fatalf("got %d ticks %v, want %v", len(ticks), ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Errorf("tick %d at %v, want %v", i, ticks[i], want[i])
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(100, "x", func(Time) {})
	for e.Step() {
	}
	defer func() {
		if recover() == nil {
			t.Fatal("At in the past did not panic")
		}
	}()
	e.At(50, "past", func(Time) {})
}

func TestNilHandlerPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler did not panic")
		}
	}()
	e.At(1, "nil", nil)
}

func TestNegativeDelayPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	e.After(-1, "neg", func(Time) {})
}

func TestFiredCount(t *testing.T) {
	e := New()
	for i := 0; i < 7; i++ {
		e.At(Time(i), "n", func(Time) {})
	}
	for e.Step() {
	}
	if e.Fired() != 7 {
		t.Errorf("Fired() = %d, want 7", e.Fired())
	}
}

// Property: for any set of event times, the engine fires them in
// non-decreasing order and ends with an empty queue.
func TestOrderingProperty(t *testing.T) {
	f := func(times []uint16) bool {
		e := New()
		var fired []Time
		for _, raw := range times {
			e.At(Time(raw), "p", func(now Time) { fired = append(fired, now) })
		}
		for e.Step() {
		}
		if len(fired) != len(times) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(e.queue) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: cancelling an arbitrary subset leaves exactly the others to
// fire.
func TestCancelSubsetProperty(t *testing.T) {
	f := func(times []uint16, mask []bool) bool {
		e := New()
		fired := 0
		var evs []*Event
		for _, raw := range times {
			evs = append(evs, e.At(Time(raw), "p", func(Time) { fired++ }))
		}
		cancelled := 0
		for i, ev := range evs {
			if i < len(mask) && mask[i] {
				if e.Cancel(ev) {
					cancelled++
				}
			}
		}
		for e.Step() {
		}
		return fired == len(times)-cancelled
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}
