// Package res defines the resource primitives shared by every subsystem:
// CPU power expressed in MHz and memory expressed in MB, plus small
// helpers for safe arithmetic on them.
//
// The paper's controller reasons about CPU power as a fluid, finely
// divisible quantity (MHz) while memory is a rigid, non-divisible
// constraint (a VM either fits on a node or it does not). The two types
// below make that asymmetry explicit in signatures throughout the code
// base.
package res

import (
	"fmt"
	"math"
	"strconv"
)

// CPU is an amount of CPU power in MHz. It is deliberately a float: the
// placement controller allocates fractional processor shares, and the
// fluid execution model advances job progress by CPU·seconds.
type CPU float64

// Memory is an amount of RAM in MB. Integral: memory is a rigid
// constraint checked with exact arithmetic.
type Memory int64

// GB is a gigabyte of memory.
const GB Memory = 1024

// String renders a CPU amount with a readable unit.
func (c CPU) String() string { return string(c.Append(nil)) }

// Append appends String's text to b: GHz to two decimals from 1 GHz
// up, whole MHz below.
func (c CPU) Append(b []byte) []byte {
	if math.Abs(float64(c)) >= 1000 {
		return append(strconv.AppendFloat(b, float64(c)/1000, 'f', 2, 64), "GHz"...)
	}
	return append(strconv.AppendFloat(b, float64(c), 'f', 0, 64), "MHz"...)
}

// String renders a memory amount with a readable unit.
func (m Memory) String() string {
	switch {
	case m >= GB && m%GB == 0:
		return fmt.Sprintf("%dGB", m/GB)
	case m >= GB:
		return fmt.Sprintf("%.1fGB", float64(m)/float64(GB))
	default:
		return fmt.Sprintf("%dMB", int64(m))
	}
}

// Min returns the smaller of a and b. It is not the builtin min: that
// one prefers -0 over 0 and propagates NaN, and plan digests would see
// the difference.
func Min(a, b CPU) CPU {
	if a < b {
		return a
	}
	return b
}

// Clamp limits c to the inclusive range [lo, hi]. It panics if lo > hi:
// that is a programming error at the call site, not a data condition.
func Clamp(c, lo, hi CPU) CPU {
	if lo > hi {
		panic(fmt.Sprintf("res.Clamp: lo %v > hi %v", lo, hi))
	}
	if c < lo {
		return lo
	}
	if c > hi {
		return hi
	}
	return c
}

// epsilon used by the approximate comparisons below. CPU quantities in
// this code base are O(1e6) MHz at most, so 1e-6 relative precision is
// far below any physically meaningful share.
const cpuEps = 1e-6

// AlmostEqual reports whether two CPU quantities are equal within a
// relative tolerance (absolute for tiny values). Floating-point CPU
// shares accumulate rounding through waterfilling and bisection;
// comparisons anywhere outside tests should use this, not ==.
func AlmostEqual(a, b CPU) bool {
	diff := math.Abs(float64(a - b))
	if diff <= cpuEps {
		return true
	}
	scale := math.Max(math.Abs(float64(a)), math.Abs(float64(b)))
	return diff <= scale*cpuEps
}

// Work is an amount of computational work in MHz·seconds: the fluid
// execution model advances a job's completed Work by allocation×Δt.
type Work float64

// WorkFor returns the work performed by an allocation of c MHz sustained
// for sec seconds.
func WorkFor(c CPU, sec float64) Work {
	if sec < 0 {
		panic(fmt.Sprintf("res.WorkFor: negative duration %v", sec))
	}
	return Work(float64(c) * sec)
}

// Seconds returns how long an allocation of c MHz needs to produce w
// work. It returns +Inf when c is zero (progress stalls) and panics on a
// negative allocation.
func (w Work) Seconds(c CPU) float64 {
	if c < 0 {
		panic(fmt.Sprintf("res.Work.Seconds: negative CPU %v", c))
	}
	if c == 0 {
		return math.Inf(1)
	}
	return float64(w) / float64(c)
}

// String renders work in readable units.
func (w Work) String() string {
	switch {
	case math.Abs(float64(w)) >= 1e6:
		return fmt.Sprintf("%.2fGHz·s", float64(w)/1e6*1000/1000)
	default:
		return fmt.Sprintf("%.0fMHz·s", float64(w))
	}
}
