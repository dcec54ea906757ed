// Package sim implements the discrete-event simulation core that every
// experiment runs on: a virtual clock, a binary-heap event queue with
// stable FIFO ordering for simultaneous events, cancellable events, and
// periodic tasks (the paper's 600-second control cycle is one).
//
// The engine is strictly single-threaded: handlers run on the caller's
// goroutine in non-decreasing time order. Determinism comes from the
// stable tie-break — two events scheduled for the same instant fire in
// scheduling order — so a simulation is a pure function of its inputs
// and RNG seed.
package sim

import (
	"container/heap"
	"fmt"
)

// Time is simulated time in seconds since the start of the run.
type Time float64

// String renders the time as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", float64(t)) }

// Handler is a callback invoked when an event fires. The engine passes
// itself so handlers can schedule follow-up events.
type Handler func(now Time)

// Event is a scheduled occurrence. Obtain events from Engine.At/After;
// the zero value is meaningless.
type Event struct {
	when  Time
	seq   uint64 // tie-break: FIFO among simultaneous events
	index int    // heap index, -1 when not queued
	fire  Handler
}

// eventQueue is a min-heap on (when, seq).
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].when != q[j].when {
		return q[i].when < q[j].when
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// Engine is the simulation scheduler. The zero value is ready to use.
type Engine struct {
	now   Time
	queue eventQueue
	seq   uint64
	fired uint64
}

// New returns a fresh engine at time zero.
func New() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// At schedules h to run at absolute time when. Scheduling in the past
// panics: it indicates a logic error that would silently corrupt
// causality if allowed.
func (e *Engine) At(when Time, label string, h Handler) *Event {
	if when < e.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v before now %v", label, when, e.now))
	}
	if h == nil {
		panic("sim: nil handler for " + label)
	}
	ev := &Event{when: when, seq: e.seq, fire: h, index: -1}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev
}

// After schedules h to run delay seconds from now.
func (e *Engine) After(delay float64, label string, h Handler) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v for %q", delay, label))
	}
	return e.At(e.now+Time(delay), label, h)
}

// Cancel removes a queued event. Cancelling an already-fired or
// already-cancelled event is a no-op and returns false.
func (e *Engine) Cancel(ev *Event) bool {
	if ev == nil || ev.index < 0 {
		return false
	}
	heap.Remove(&e.queue, ev.index)
	return true
}

// Step fires the single earliest event. It returns false when the queue
// is empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*Event)
	e.now = ev.when
	e.fired++
	ev.fire(e.now)
	return true
}

// RunUntil fires events in order until the queue drains or the next
// event is later than horizon, then advances the clock to horizon so
// periodic observers see a full window.
func (e *Engine) RunUntil(horizon Time) {
	if horizon < e.now {
		panic(fmt.Sprintf("sim: horizon %v before now %v", horizon, e.now))
	}
	for len(e.queue) > 0 && e.queue[0].when <= horizon {
		e.Step()
	}
	e.now = horizon
}

// Periodic invokes h every period seconds starting at start, until the
// run ends. The handler runs with the tick's timestamp. Period must be
// positive.
func (e *Engine) Periodic(start Time, period float64, label string, h Handler) {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive period %v for %q", period, label))
	}
	var tick Handler
	tick = func(now Time) {
		h(now)
		e.At(now+Time(period), label, tick)
	}
	e.At(start, label, tick)
}
