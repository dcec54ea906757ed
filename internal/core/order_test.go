package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"slaplace/internal/res"
	"slaplace/internal/workload/batch"
)

// randomRecords draws n planning records for the priority order: most
// laxities from a few values, -0 beside +0, the rest continuous; a
// handful of submission times and IDs, so every jobCmp key ties
// somewhere. states picks each record's job state.
func randomRecords(rng *rand.Rand, n int, states []batch.State) []*PlannedJob {
	laxes := []float64{math.Copysign(0, -1), 0, -600, 1200.5, math.Inf(1), math.Inf(-1), 5e-324}
	recs := make([]PlannedJob, n)
	out := make([]*PlannedJob, n)
	for i := range recs {
		pj := &recs[i]
		pj.idx = int32(i)
		pj.lax = laxes[rng.Intn(len(laxes))]
		if rng.Intn(3) == 0 {
			pj.lax = 1e5 * rng.NormFloat64()
		}
		pj.Info.State = states[rng.Intn(len(states))]
		pj.Info.Submitted = float64(rng.Intn(4)) * 600
		pj.Info.ID = batch.JobID(fmt.Sprintf("j%d", rng.Intn(8)))
		out[i] = pj
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestSortJobsMatchesSortFunc holds sortJobs to the comparison sort it
// replaces: the same permutation on records with ties in every key,
// signed zeros, all-running and all-pending sets, a NaN laxity, and
// sizes on both sides of radixCutoff.
func TestSortJobsMatchesSortFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	mixes := map[string][]batch.State{
		"mixed":   {batch.Running, batch.Pending, batch.Suspended},
		"running": {batch.Running},
		"pending": {batch.Pending},
	}
	var keys, tmp []jobKey
	for name, states := range mixes {
		for _, n := range []int{0, 1, 2, 17, radixCutoff - 1, radixCutoff, radixCutoff + 1, 1000, 5000} {
			for trial := 0; trial < 4; trial++ {
				got := randomRecords(rng, n, states)
				if trial == 3 && n > 0 {
					got[rng.Intn(n)].lax = math.NaN()
				}
				want := slices.Clone(got)
				slices.SortFunc(want, jobCmp)
				sortJobs(got, &keys, &tmp)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s n=%d trial %d: position %d holds record %d, want %d",
							name, n, trial, i, got[i].idx, want[i].idx)
					}
				}
			}
		}
	}
}

// BenchmarkSortJobs prices sortJobs against the comparison sort around
// radixCutoff and at the churn benchmark's 5000 jobs.
func BenchmarkSortJobs(b *testing.B) {
	for _, n := range []int{128, 256, 384, 512, 768, 5000} {
		recs := randomRecords(rand.New(rand.NewSource(1)), n, []batch.State{batch.Running, batch.Pending})
		for _, pj := range recs {
			pj.lax = 1e5 * rand.NormFloat64()
		}
		order := make([]*PlannedJob, n)
		var keys, tmp []jobKey
		b.Run(fmt.Sprintf("radix/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(order, recs)
				sortJobs(order, &keys, &tmp)
			}
		})
		b.Run(fmt.Sprintf("sortfunc/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(order, recs)
				slices.SortFunc(order, jobCmp)
			}
		})
	}
}

// TestSortJobsOverPoisonedArena plans a cluster above radixCutoff jobs,
// with laxity ties, through the controller over poisoned free arenas,
// and requires the plan a standalone pass (fresh scratch) produces.
func TestSortJobsOverPoisonedArena(t *testing.T) {
	st := steadyTestState(t, 200, 150)
	for i := range st.Jobs {
		if i%7 == 0 {
			st.Jobs[i].Goal, st.Jobs[i].Remaining = 150000, res.Work(4500*30000)
		}
	}
	if len(st.Jobs) < radixCutoff {
		t.Fatalf("%d jobs, want at least radixCutoff %d", len(st.Jobs), radixCutoff)
	}
	cfg := DefaultConfig()
	cfg.Incremental = false
	ref := New(cfg)
	ctx := newPlanContext(cloneStateDeep(st))
	for _, ph := range ref.Pipeline() {
		ph.Run(ctx)
	}
	nodeIDs, appIDs := seqIDs([][]*State{{st}})
	c := New(cfg)
	for cycle := 0; cycle < 3; cycle++ {
		poisonFreeArenas(nodeIDs, appIDs)
		comparePlans(t, fmt.Sprintf("cycle %d", cycle), c.Plan(cloneStateDeep(st)), ctx.plan)
	}
}
