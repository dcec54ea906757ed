// Package shard decomposes one large cluster snapshot into K
// independently plannable partitions, plans them concurrently with
// per-shard controllers, and merges the per-shard plans into a single
// core.Plan whose actions are ordered freeing-first globally.
//
// Sharding is the scale step past incremental re-planning: a single
// planner — however incremental — still owns every node, so cold plans
// and worst-case cycles grow with the whole cluster. A 20 000-node
// cluster planned as 16 shards costs one shard's planning time on
// enough cores, and each shard keeps the node ledgers and incremental
// tiers of core.PlacementController across cycles.
//
// The decomposition is deterministic (identical snapshot sequences
// partition identically, so sharded controllers stay deterministic end
// to end) and load-aware:
//
//   - nodes split into K contiguous blocks in snapshot order, with the
//     boundaries placed by aggregate demand weight (node memory
//     capacity as the planning-cost ballast, plus resident running-job
//     memory and web-instance footprints), so a demand-skewed cluster
//     gets small hot shards and large cold ones instead of equal node
//     counts with wildly unequal work;
//   - the boundaries persist across cycles: they are recomputed only
//     when the node set changes or the per-shard demand spread
//     (max/min shard load) exceeds the reshard threshold. A boundary
//     migration moves node blocks between shards — only the touched
//     shards see a different sub-snapshot and fall back to a cold
//     plan; untouched shards keep byte-identical inputs and with them
//     their replay/carry-over tiers and ledgers;
//   - running jobs are pinned to the shard owning their node;
//   - pending, suspended and stranded jobs are dealt round-robin in
//     snapshot order (stable while the backlog is stable, so per-shard
//     replay and carry-over tiers keep firing in steady state);
//   - each web application lives in exactly one home shard — the shard
//     holding the plurality of its live instances (lowest shard wins
//     ties; apps with no live instances are dealt round-robin). Its
//     instances in foreign shards are reconciled away: the partitioner
//     emits RemoveInstance actions for them and strips them from the
//     home shard's view, so the application converges into its home
//     shard within one cycle.
//
// The split itself is parallel where it is heavy: the per-job node
// lookups and the per-shard scatter copy run chunked across
// GOMAXPROCS. Chunking is positional (every job's shard and output
// slot are computed, not discovered), and the demand weights are
// integral (res.Memory is an int64), so the partition is bit-identical
// whatever the worker count.
//
// With K=1 the sharded controller bypasses partitioning and merging
// entirely and is byte-identical to the wrapped controller.
package shard

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"slaplace/internal/cluster"
	"slaplace/internal/core"
	"slaplace/internal/res"
	"slaplace/internal/workload/batch"
)

// DefaultReshardSpread is the demand-spread ratio (max/min shard load)
// above which the partitioner migrates node blocks between shards.
// Resharding trades one cold cycle on the touched shards for balanced
// planning afterwards, so the trigger leaves slack over the balanced
// state rather than chasing every wobble.
const DefaultReshardSpread = 1.5

// splitChunks is the fixed chunk count of the parallel split passes.
// It is a constant — not GOMAXPROCS — so the chunk boundaries, and
// with them every intermediate, are host-independent.
const splitChunks = 16

// partition is one deterministic decomposition of a snapshot.
type partition struct {
	// states are the per-shard sub-snapshots.
	states []*core.State
	// reconcile lists the cross-shard web instances to remove, in app
	// snapshot order with nodes sorted per app.
	reconcile []core.Action
	// jobCount / classCount weight the per-shard job-utility
	// diagnostics back into global means.
	jobCount   []int
	classCount []map[string]int

	// loads is the per-shard demand load the boundaries were judged
	// by: the shard's node-weight block plus an even share of the
	// queued (unpinned) memory, which round-robin dealing spreads
	// uniformly. spread is max/min over loads (math.Inf(1) when a
	// shard's load is zero).
	loads  []float64
	spread float64
	// resharded reports whether this split migrated node blocks
	// between shards (boundaries moved at an unchanged effective K).
	resharded bool
}

// partitionScratch recycles the partition's backing storage across
// cycles (the sharded controller plans under a lock, so one scratch per
// controller suffices) and carries the persistent partition geometry:
// the shard boundaries survive from cycle to cycle so untouched shards
// keep byte-identical sub-snapshots.
type partitionScratch struct {
	p partition

	// nodeIdx maps node IDs to snapshot indexes; nodeShard maps the
	// snapshot index to its owning shard. Both persist and are rebuilt
	// only when the node set (or the boundaries) change.
	nodeIdx   map[cluster.NodeID]int32
	nodeShard []int32
	nodesSig  []core.NodeInfo
	// bounds are the persistent shard boundaries: shard i owns node
	// indexes [bounds[i], bounds[i+1]). boundsK is the effective K they
	// were computed for.
	bounds  []int
	boundsK int
	// reshards counts boundary migrations at an unchanged effective K
	// since the scratch was created (the controller's diagnostics).
	reshards int
	// pendingBounds are boundaries restored from a checkpoint, adopted
	// verbatim by the next split (they are the boundary decision's
	// recorded outcome for the snapshot that split will replay) and
	// cleared. Bounds that do not fit the snapshot fall through to a
	// fresh computation.
	pendingBounds []int

	// Per-split working storage.
	weights   []int64 // per-node demand weight
	prefix    []int64 // prefix[i] = Σ weights[:i]
	jobNode   []int32 // per-job node index (-1 when unpinned)
	shardOf   []int32 // per-job target shard
	chunkOff  []int32 // per (chunk, shard) scatter offsets
	instCount []int   // per-shard live-instance counter, reused per app

	// Class counting: interned class names with a last-seen cache, so
	// single-class backlogs never touch the map in the hot loop.
	classIdx    map[string]int32
	classNames  []string
	classCounts []int32 // per (shard, class), shard-major
}

// effectiveShards clamps the configured shard count to something the
// snapshot can support: at least one, at most one shard per node.
func effectiveShards(k, nodes int) int {
	if nodes < 1 {
		return 1 // a nodeless snapshot still plans (everything waits)
	}
	if k < 1 {
		return 1
	}
	if k > nodes {
		return nodes
	}
	return k
}

// runChunks executes f(0..chunks-1), concurrently when the runtime has
// more than one proc. Callers must make f positional: every chunk
// writes only its own output slots, so scheduling cannot change bytes.
func runChunks(chunks int, f func(chunk int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		for c := 0; c < chunks; c++ {
			f(c)
		}
		return
	}
	var next atomic.Int32
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				f(c)
			}
		}()
	}
	wg.Wait()
}

// chunkRange returns chunk c's half-open range over n items split into
// `chunks` near-equal pieces.
func chunkRange(c, n, chunks int) (lo, hi int) {
	base, rem := n/chunks, n%chunks
	lo = c*base + min(c, rem)
	hi = lo + base
	if c < rem {
		hi++
	}
	return lo, hi
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// split builds the K-way partition of st into the scratch's recycled
// storage, reusing the previous cycle's shard boundaries unless the
// node set changed or the demand spread crossed DefaultReshardSpread.
// The returned partition is valid until the next split on the same
// scratch. Its states follow core.State's ownership rule: each one's
// job and app slices are new, never a buffer an inner controller could
// still be reading, and its nodes are a window onto st's.
func (sc *partitionScratch) split(st *core.State, k int) *partition {
	k = effectiveShards(k, len(st.Nodes))
	n := len(st.Nodes)
	p := &sc.p
	p.reconcile = p.reconcile[:0]
	p.resharded = false
	if cap(p.states) < k {
		p.states = append(p.states[:cap(p.states)], make([]*core.State, k-cap(p.states))...)
		for i := range p.states {
			if p.states[i] == nil {
				p.states[i] = &core.State{}
			}
		}
		p.jobCount = make([]int, k)
		p.classCount = make([]map[string]int, k)
		p.loads = make([]float64, k)
		sc.instCount = make([]int, k)
	}
	p.states = p.states[:k]
	p.jobCount = p.jobCount[:k]
	p.classCount = p.classCount[:k]
	p.loads = p.loads[:k]

	// Node identity: rebuild the ID index only when the node set
	// changed (the common steady-state cycle skips both map fills).
	topologyChanged := !slices.Equal(sc.nodesSig, st.Nodes)
	if topologyChanged {
		sc.nodesSig = st.Nodes // a State is never changed once handed over
		if sc.nodeIdx == nil {
			sc.nodeIdx = make(map[cluster.NodeID]int32, n)
		} else {
			clear(sc.nodeIdx)
		}
		for i := range st.Nodes {
			sc.nodeIdx[st.Nodes[i].ID] = int32(i)
		}
	}

	// Per-job node resolution, chunked: the map lookups are the heavy
	// half of the split and are read-only, so they parallelize.
	if cap(sc.jobNode) < len(st.Jobs) {
		sc.jobNode = make([]int32, len(st.Jobs))
		sc.shardOf = make([]int32, len(st.Jobs))
	}
	jobNode := sc.jobNode[:len(st.Jobs)]
	shardOf := sc.shardOf[:len(st.Jobs)]
	runChunks(splitChunks, func(c int) {
		lo, hi := chunkRange(c, len(st.Jobs), splitChunks)
		for j := lo; j < hi; j++ {
			jobNode[j] = -1
			if st.Jobs[j].State != batch.Running {
				continue
			}
			if idx, ok := sc.nodeIdx[st.Jobs[j].Node]; ok {
				jobNode[j] = idx
			}
		}
	})

	// Demand weights: node memory capacity as the per-node planning
	// ballast, plus pinned running-job memory and live web-instance
	// footprints. Integral (res.Memory), so accumulation order cannot
	// change the result. Queued (unpinned) memory is tracked apart: the
	// round-robin deal spreads it evenly, so it shifts every shard's
	// load identically and only the boundary decision's denominator.
	if cap(sc.weights) < n {
		sc.weights = make([]int64, n)
		sc.prefix = make([]int64, n+1)
	}
	weights := sc.weights[:n]
	for i := range st.Nodes {
		weights[i] = int64(st.Nodes[i].Mem)
	}
	var queuedW int64
	for j := range st.Jobs {
		if idx := jobNode[j]; idx >= 0 {
			weights[idx] += int64(st.Jobs[j].Mem)
		} else {
			queuedW += int64(st.Jobs[j].Mem)
		}
	}
	for a := range st.Apps {
		app := &st.Apps[a]
		for id := range app.Instances {
			if idx, ok := sc.nodeIdx[id]; ok {
				weights[idx] += int64(app.InstanceMem)
			}
		}
	}
	prefix := sc.prefix[:n+1]
	prefix[0] = 0
	for i := 0; i < n; i++ {
		prefix[i+1] = prefix[i] + weights[i]
	}

	// Boundary decision: keep the previous cycle's boundaries while the
	// topology holds and the demand spread stays under the limit;
	// recompute (and count a reshard) otherwise. Everything feeding the
	// decision is part of the snapshot plus the persisted boundaries,
	// so a controller replaying the same snapshot sequence reshards at
	// the same cycles.
	// Checkpoint-restored boundaries are used as-is for this one split —
	// no keep/reshard decision, because that decision's outcome for this
	// snapshot is exactly what was checkpointed. Later cycles take the
	// normal path below.
	adopted := false
	if pb := sc.pendingBounds; pb != nil {
		sc.pendingBounds = nil
		if validBounds(pb, k, n) {
			sc.bounds = append([]int(nil), pb...)
			sc.boundsK = k
			adopted = true
			if cap(sc.nodeShard) < n {
				sc.nodeShard = make([]int32, n)
			}
			nodeShard := sc.nodeShard[:n]
			for s := 0; s < k; s++ {
				for i := sc.bounds[s]; i < sc.bounds[s+1]; i++ {
					nodeShard[i] = int32(s)
				}
			}
		}
	}

	needBounds := !adopted && (topologyChanged || sc.boundsK != k || len(sc.bounds) != k+1)
	if !needBounds && !adopted {
		if spread := loadSpread(p.loads, prefix, sc.bounds, queuedW, k); spread > DefaultReshardSpread {
			needBounds = true
		}
	}
	if needBounds {
		sameK := sc.boundsK == k && len(sc.bounds) == k+1
		changed := sc.computeBounds(prefix, n, k)
		if sameK && changed {
			p.resharded = true
			sc.reshards++
		}
		sc.boundsK = k
		if changed || topologyChanged || cap(sc.nodeShard) < n {
			if cap(sc.nodeShard) < n {
				sc.nodeShard = make([]int32, n)
			}
			nodeShard := sc.nodeShard[:n]
			for s := 0; s < k; s++ {
				for i := sc.bounds[s]; i < sc.bounds[s+1]; i++ {
					nodeShard[i] = int32(s)
				}
			}
		}
	}
	p.spread = loadSpread(p.loads, prefix, sc.bounds, queuedW, k)
	nodeShard := sc.nodeShard[:n]

	// Per-shard states over the boundary blocks (nodes shared, not
	// copied, with the snapshot); the deals fill in jobs and apps.
	for i := 0; i < k; i++ {
		sub := p.states[i]
		*sub = core.State{Now: st.Now, Nodes: st.Nodes[sc.bounds[i]:sc.bounds[i+1]]}
	}

	sc.dealJobs(st, k, jobNode, shardOf, nodeShard)
	sc.dealApps(st, k, nodeShard)

	for i := 0; i < k; i++ {
		p.jobCount[i] = len(p.states[i].Jobs)
	}
	return p
}

// validBounds reports whether checkpoint-restored boundaries fit a
// k-shard split of n nodes: k+1 strictly increasing offsets from 0 to
// n (every shard owns at least one node, as computeBounds guarantees).
func validBounds(b []int, k, n int) bool {
	if len(b) != k+1 || b[0] != 0 || b[k] != n {
		return false
	}
	for i := 0; i < k; i++ {
		if b[i] >= b[i+1] {
			return false
		}
	}
	return true
}

// loadSpread fills loads with the per-shard demand under the given
// boundaries and returns max/min over them (1 for an empty partition,
// +Inf when a shard's load is zero while another's is not).
func loadSpread(loads []float64, prefix []int64, bounds []int, queuedW int64, k int) float64 {
	queuedPer := float64(queuedW) / float64(k)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < k; i++ {
		l := float64(prefix[bounds[i+1]]-prefix[bounds[i]]) + queuedPer
		loads[i] = l
		lo = math.Min(lo, l)
		hi = math.Max(hi, l)
	}
	switch {
	case hi <= 0:
		return 1
	case lo <= 0:
		return math.Inf(1)
	default:
		return hi / lo
	}
}

// computeBounds places the K-1 interior boundaries on the weight
// prefix: boundary j lands on the node index whose prefix is closest
// to j/K of the total weight, constrained to leave at least one node
// per shard. Reports whether the boundaries differ from the previous
// ones.
func (sc *partitionScratch) computeBounds(prefix []int64, n, k int) (changed bool) {
	total := prefix[n]
	old := sc.bounds
	bounds := make([]int, 0, k+1)
	bounds = append(bounds, 0)
	idx := 0
	for j := 1; j < k; j++ {
		// target is the ideal cumulative weight of the first j shards.
		target := total / int64(k) * int64(j)
		if idx < bounds[j-1]+1 {
			idx = bounds[j-1] + 1 // at least one node in shard j-1
		}
		hi := n - (k - j) // leave one node for each remaining shard
		for idx < hi && abs64(prefix[idx+1]-target) < abs64(prefix[idx]-target) {
			idx++
		}
		bounds = append(bounds, idx)
	}
	bounds = append(bounds, n)
	changed = len(old) != len(bounds)
	if !changed {
		for i := range bounds {
			if old[i] != bounds[i] {
				changed = true
				break
			}
		}
	}
	sc.bounds = bounds
	return changed
}

// dealJobs distributes the snapshot's jobs: running jobs pinned to
// their node's shard, everything else (pending, suspended, or stranded
// on a node outside the snapshot) dealt round-robin in snapshot order.
// The shard assignment and each job's output slot are computed before
// the copy, so the scatter parallelizes without changing a byte of the
// serial result.
func (sc *partitionScratch) dealJobs(st *core.State, k int, jobNode, shardOf, nodeShard []int32) {
	p := &sc.p
	jobs := len(st.Jobs)

	// Pass 1 (chunked): pinned shards and per-chunk unpinned counts.
	var chunkUnpinned [splitChunks]int
	runChunks(splitChunks, func(c int) {
		lo, hi := chunkRange(c, jobs, splitChunks)
		unpinned := 0
		for j := lo; j < hi; j++ {
			if idx := jobNode[j]; idx >= 0 {
				shardOf[j] = nodeShard[idx]
			} else {
				shardOf[j] = -1
				unpinned++
			}
		}
		chunkUnpinned[c] = unpinned
	})
	unpinnedBase := 0
	for c := range chunkUnpinned {
		chunkUnpinned[c], unpinnedBase = unpinnedBase, unpinnedBase+chunkUnpinned[c]
	}

	// Pass 2 (chunked): deal the unpinned jobs round-robin by their
	// global ordinal and count every (chunk, shard) pair for the
	// scatter offsets.
	if cap(sc.chunkOff) < splitChunks*k {
		sc.chunkOff = make([]int32, splitChunks*k)
	}
	chunkOff := sc.chunkOff[:splitChunks*k]
	runChunks(splitChunks, func(c int) {
		lo, hi := chunkRange(c, jobs, splitChunks)
		seq := chunkUnpinned[c]
		counts := chunkOff[c*k : (c+1)*k]
		for s := range counts {
			counts[s] = 0
		}
		for j := lo; j < hi; j++ {
			s := shardOf[j]
			if s < 0 {
				s = int32(seq % k)
				seq++
				shardOf[j] = s
			}
			counts[s]++
		}
	})

	// Offsets: shard-major totals first, then per-chunk starts within
	// each shard, visiting chunks in index order so the scatter keeps
	// snapshot order inside every shard.
	for s := 0; s < k; s++ {
		total := int32(0)
		for c := 0; c < splitChunks; c++ {
			chunkOff[c*k+s], total = total, total+chunkOff[c*k+s]
		}
		p.states[s].Jobs = make([]core.JobInfo, total)
	}

	// Pass 3 (chunked): scatter-copy every job into its slot.
	runChunks(splitChunks, func(c int) {
		lo, hi := chunkRange(c, jobs, splitChunks)
		off := chunkOff[c*k : (c+1)*k]
		for j := lo; j < hi; j++ {
			s := shardOf[j]
			p.states[s].Jobs[off[s]] = st.Jobs[j]
			off[s]++
		}
	})

	// Class counts (serial, with a last-class cache so a single-class
	// backlog costs one map hit total).
	if sc.classIdx == nil {
		sc.classIdx = make(map[string]int32)
	} else {
		clear(sc.classIdx)
	}
	sc.classNames = sc.classNames[:0]
	lastClass, lastCI := "", int32(-1)
	counts := sc.classCounts[:0]
	for j := 0; j < jobs; j++ {
		class := st.Jobs[j].Class
		if lastCI < 0 || class != lastClass {
			ci, ok := sc.classIdx[class]
			if !ok {
				ci = int32(len(sc.classNames))
				sc.classIdx[class] = ci
				sc.classNames = append(sc.classNames, class)
				counts = append(counts, make([]int32, k*(len(sc.classNames))-len(counts))...)
			}
			lastClass, lastCI = class, ci
		}
		counts[int(shardOf[j])*len(sc.classNames)+int(lastCI)]++
	}
	sc.classCounts = counts
	nc := len(sc.classNames)
	for s := 0; s < k; s++ {
		if p.classCount[s] == nil {
			p.classCount[s] = make(map[string]int, nc)
		} else {
			clear(p.classCount[s])
		}
		for ci := 0; ci < nc; ci++ {
			if v := counts[s*nc+ci]; v > 0 {
				p.classCount[s][sc.classNames[ci]] = int(v)
			}
		}
	}
}

// dealApps homes each web application in the shard holding the
// plurality of its live instances (lowest shard wins ties), dealing
// no-instance apps round-robin. Foreign live instances become
// reconcile removals and are stripped from the home shard's view;
// instances on nodes outside the snapshot are kept as-is (the planner
// ignores offline nodes, exactly like the unsharded pipeline does).
func (sc *partitionScratch) dealApps(st *core.State, k int, nodeShard []int32) {
	p := &sc.p
	homeless := 0
	for a := range st.Apps {
		app := &st.Apps[a]
		for i := range sc.instCount {
			sc.instCount[i] = 0
		}
		live := 0
		for id := range app.Instances {
			if idx, ok := sc.nodeIdx[id]; ok {
				sc.instCount[nodeShard[idx]]++
				live++
			}
		}
		home := 0
		if live == 0 {
			home = homeless % k
			homeless++
		} else {
			for i := 1; i < k; i++ {
				if sc.instCount[i] > sc.instCount[home] {
					home = i
				}
			}
		}
		sub := *app
		if live > sc.instCount[home] {
			// Cross-shard instances: strip them from the home view and
			// schedule their removal, nodes in sorted order.
			var foreign []cluster.NodeID
			inst := make(map[cluster.NodeID]res.CPU, len(app.Instances))
			for id, s := range app.Instances {
				if idx, ok := sc.nodeIdx[id]; ok && int(nodeShard[idx]) != home {
					foreign = append(foreign, id)
					continue
				}
				inst[id] = s
			}
			slices.Sort(foreign)
			for _, id := range foreign {
				p.reconcile = append(p.reconcile, core.Action{Kind: core.RemoveInstance, App: app.ID, Node: id})
			}
			sub.Instances = inst
		}
		p.states[home].Apps = append(p.states[home].Apps, sub)
	}
}
