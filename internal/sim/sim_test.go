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
	e.Run()
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
	e.Run()
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
	e.Run()
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
	e.Run()
	if ran {
		t.Error("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Error("Cancelled() = false after cancel")
	}
}

func TestCancelNilIsFalse(t *testing.T) {
	e := New()
	if e.Cancel(nil) {
		t.Error("Cancel(nil) = true")
	}
}

func TestReschedule(t *testing.T) {
	e := New()
	var fired Time
	ev := e.At(10, "move", func(now Time) { fired = now })
	if !e.Reschedule(ev, 40) {
		t.Fatal("Reschedule returned false")
	}
	e.At(20, "other", func(Time) {})
	e.Run()
	if fired != 40 {
		t.Errorf("rescheduled event fired at %v, want 40", fired)
	}
}

func TestRescheduleFiredEventFails(t *testing.T) {
	e := New()
	ev := e.At(1, "x", func(Time) {})
	e.Run()
	if e.Reschedule(ev, 5) {
		t.Error("Reschedule of fired event returned true")
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
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
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

func TestStopInsideHandler(t *testing.T) {
	e := New()
	fired := 0
	e.At(1, "a", func(Time) { fired++; e.Stop() })
	e.At(2, "b", func(Time) { fired++ })
	e.Run()
	if fired != 1 {
		t.Errorf("fired %d events after Stop, want 1", fired)
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

func TestPeriodicCancel(t *testing.T) {
	e := New()
	count := 0
	var cancel func()
	cancel = e.Periodic(0, 10, "c", func(now Time) {
		count++
		if count == 3 {
			cancel()
		}
	})
	e.RunUntil(1000)
	if count != 3 {
		t.Errorf("periodic fired %d times after self-cancel at 3", count)
	}
}

func TestTracer(t *testing.T) {
	e := New()
	var labels []string
	e.SetTracer(TracerFunc(func(now Time, label string) { labels = append(labels, label) }))
	e.At(1, "alpha", func(Time) {})
	e.At(2, "beta", func(Time) {})
	e.Run()
	if len(labels) != 2 || labels[0] != "alpha" || labels[1] != "beta" {
		t.Errorf("tracer saw %v", labels)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(100, "x", func(Time) {})
	e.Run()
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
	e.Run()
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
		e.Run()
		if len(fired) != len(times) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return e.Pending() == 0
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
		e.Run()
		return fired == len(times)-cancelled
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}
