package core

import "slaplace/internal/res"

// Indexed node selection.
//
// The cold planning path used to rescan every ledger per decision:
// pickNode walked all nodes per job (O(jobs × nodes)) and
// phaseWebPlacement rebuilt and re-sorted a candidate slice per
// application. These indexes replace the scans with incrementally
// maintained heaps, attached to the ledgers for the duration of one
// phase and kept consistent by update hooks on every occupancy
// mutation (Ledger.Occupy/Release/AddJob/RemoveJob/AppendJob/BookMem).
// Selection drops to O(log nodes) per decision while remaining
// byte-identical to the scans: each index key is exactly the scan's
// selection criterion, including its tie-breaks.
//
// Lifecycle: an index is built at phase entry (O(nodes) heapify),
// detached at phase exit. The fast incremental tiers never build one —
// they make no selection decisions — so steady-state re-plans pay only
// a nil check per hook. The index backing storage recycles through the
// plan-scoped planArena across plans.

// ledgerIndex observes occupancy changes on hooked ledgers so a phase's
// node index stays consistent with the books.
type ledgerIndex interface {
	ledgerChanged(l *Ledger)
}

// jobBetter is pickNode's selection criterion as a strict ordering over
// ledgers: most free memory first, then earliest node order. It ranks
// ledgers *within* one job-count bucket; the bucket id (planned job
// count) is the criterion's most significant component.
func jobBetter(a, b *Ledger) bool {
	fa, fb := a.FreeMem(), b.FreeMem()
	if fa != fb {
		return fa > fb
	}
	return a.pos < b.pos
}

// jobPickIndex indexes ledgers by pickNode's exact criterion
// (feasible memory, fewest planned jobs, most free memory, node order):
// one max-heap of ledgers per planned-job count, each heap ordered by
// jobBetter. A query scans buckets from the lowest job count and
// returns the first bucket top with enough free memory — the bucket top
// is the bucket's memory maximum, so an infeasible top proves the whole
// bucket infeasible. Updates re-sift one ledger (same bucket) or move
// it between adjacent buckets, O(log nodes) either way.
type jobPickIndex struct {
	buckets [][]*Ledger
	// lo is the lowest possibly non-empty bucket. Placement only moves
	// nodes to higher buckets, so without it every query in a
	// jobs >> nodes regime would re-walk an ever-growing empty prefix;
	// pick advances it lazily (amortized O(1)) and inserts lower it.
	lo int
}

var _ ledgerIndex = (*jobPickIndex)(nil)

// build (re)indexes the book set and attaches the index to every ledger
// so subsequent occupancy mutations keep it consistent. Call detach
// when the phase is done.
func (ix *jobPickIndex) build(ls *Ledgers) {
	for b := range ix.buckets {
		ix.buckets[b] = ix.buckets[b][:0]
	}
	maxb := -1
	for _, l := range ls.list {
		b := len(l.Jobs)
		for len(ix.buckets) <= b {
			ix.buckets = append(ix.buckets, nil)
		}
		if b > maxb {
			maxb = b
		}
		l.bucket = int32(b)
		l.heapPos = int32(len(ix.buckets[b]))
		ix.buckets[b] = append(ix.buckets[b], l)
		l.index = ix
	}
	// Drop the empty tail a previously skewed cycle may have left, so a
	// fruitless query never walks buckets no node can currently reach.
	ix.buckets = ix.buckets[:maxb+1]
	ix.lo = 0
	for b := range ix.buckets {
		h := ix.buckets[b]
		for i := len(h)/2 - 1; i >= 0; i-- {
			jobSiftDown(h, i)
		}
	}
}

// detach unhooks the index from every ledger.
func (ix *jobPickIndex) detach(ls *Ledgers) {
	for _, l := range ls.list {
		l.index = nil
	}
}

// pick returns the ledger pickNode would select for a job of the given
// memory footprint, or nil when nothing fits.
func (ix *jobPickIndex) pick(mem res.Memory) *Ledger {
	for ix.lo < len(ix.buckets) && len(ix.buckets[ix.lo]) == 0 {
		ix.lo++
	}
	for b := ix.lo; b < len(ix.buckets); b++ {
		h := ix.buckets[b]
		if len(h) > 0 && h[0].FreeMem() >= mem {
			return h[0]
		}
	}
	return nil
}

// ledgerChanged implements ledgerIndex: re-bucket on a planned-job
// count change, re-sift in place on a memory change.
func (ix *jobPickIndex) ledgerChanged(l *Ledger) {
	nb := len(l.Jobs)
	if int(l.bucket) == nb {
		h := ix.buckets[l.bucket]
		i := jobSiftUp(h, int(l.heapPos))
		jobSiftDown(h, i)
		return
	}
	// Remove from the old bucket...
	h := ix.buckets[l.bucket]
	i := int(l.heapPos)
	last := len(h) - 1
	h[i] = h[last]
	h[i].heapPos = int32(i)
	ix.buckets[l.bucket] = h[:last]
	if i < last {
		i = jobSiftUp(h[:last], i)
		jobSiftDown(h[:last], i)
	}
	// ...and push onto the new one.
	for len(ix.buckets) <= nb {
		ix.buckets = append(ix.buckets, nil)
	}
	if nb < ix.lo {
		ix.lo = nb
	}
	l.bucket = int32(nb)
	l.heapPos = int32(len(ix.buckets[nb]))
	ix.buckets[nb] = append(ix.buckets[nb], l)
	jobSiftUp(ix.buckets[nb], int(l.heapPos))
}

// ledgerOrder is a heap comparator over ledgers. The sift helpers are
// generic over it with zero-size concrete instantiations, so both
// heaps share one sift implementation without indirect calls in the
// hot loop.
type ledgerOrder interface {
	better(a, b *Ledger) bool
}

// jobOrder instantiates the sifts with jobBetter.
type jobOrder struct{}

func (jobOrder) better(a, b *Ledger) bool { return jobBetter(a, b) }

// webOrder instantiates the sifts with webBetter.
type webOrder struct{}

func (webOrder) better(a, b *Ledger) bool { return webBetter(a, b) }

// siftUp restores the heap invariant upward from i, maintaining each
// ledger's heapPos, and returns the element's final position.
func siftUp[O ledgerOrder](o O, h []*Ledger, i int) int {
	for i > 0 {
		p := (i - 1) / 2
		if !o.better(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		h[i].heapPos, h[p].heapPos = int32(i), int32(p)
		i = p
	}
	return i
}

// siftDown restores the heap invariant downward from i, maintaining
// each ledger's heapPos.
func siftDown[O ledgerOrder](o O, h []*Ledger, i int) {
	n := len(h)
	for {
		best := i
		if l := 2*i + 1; l < n && o.better(h[l], h[best]) {
			best = l
		}
		if r := 2*i + 2; r < n && o.better(h[r], h[best]) {
			best = r
		}
		if best == i {
			return
		}
		h[i], h[best] = h[best], h[i]
		h[i].heapPos, h[best].heapPos = int32(i), int32(best)
		i = best
	}
}

// jobSiftUp / jobSiftDown / webSiftUp / webSiftDown are the two heaps'
// concrete instantiations.
func jobSiftUp(h []*Ledger, i int) int { return siftUp(jobOrder{}, h, i) }
func jobSiftDown(h []*Ledger, i int)   { siftDown(jobOrder{}, h, i) }
func webSiftUp(h []*Ledger, i int) int { return siftUp(webOrder{}, h, i) }
func webSiftDown(h []*Ledger, i int)   { siftDown(webOrder{}, h, i) }

// webBetter is phaseWebPlacement's candidate ordering as a strict
// ordering over ledgers: most free memory first, then node ID. (The
// web phase tie-breaks on the ID itself, not the node order — the job
// phase does the opposite; do not unify them.)
func webBetter(a, b *Ledger) bool {
	fa, fb := a.FreeMem(), b.FreeMem()
	if fa != fb {
		return fa > fb
	}
	return a.Info.ID < b.Info.ID
}

// webPickIndex is a single max-heap of every ledger ordered by
// webBetter, giving phaseWebPlacement its per-application candidate
// stream without rebuilding and re-sorting a slice per app. Popped
// ledgers are temporarily outside the heap (heapPos -1) and must be
// pushed back once the application's selection is done.
type webPickIndex struct {
	h []*Ledger
}

var _ ledgerIndex = (*webPickIndex)(nil)

// build (re)indexes the book set and attaches the index; call detach
// when the phase is done.
func (ix *webPickIndex) build(ls *Ledgers) {
	ix.h = ix.h[:0]
	for _, l := range ls.list {
		l.heapPos = int32(len(ix.h))
		ix.h = append(ix.h, l)
		l.index = ix
	}
	for i := len(ix.h)/2 - 1; i >= 0; i-- {
		webSiftDown(ix.h, i)
	}
}

// detach unhooks the index from every ledger.
func (ix *webPickIndex) detach(ls *Ledgers) {
	for _, l := range ls.list {
		l.index = nil
	}
}

// peek returns the best candidate without removing it, nil when empty.
func (ix *webPickIndex) peek() *Ledger {
	if len(ix.h) == 0 {
		return nil
	}
	return ix.h[0]
}

// popTop removes and returns the best candidate. The ledger stays
// hooked but is marked outside the heap, so mutations while popped
// (booking the instance memory) are deferred to the push.
func (ix *webPickIndex) popTop() *Ledger {
	top := ix.h[0]
	last := len(ix.h) - 1
	ix.h[0] = ix.h[last]
	ix.h[0].heapPos = 0
	ix.h = ix.h[:last]
	if last > 0 {
		webSiftDown(ix.h, 0)
	}
	top.heapPos = -1
	return top
}

// push re-inserts a popped ledger under its current key.
func (ix *webPickIndex) push(l *Ledger) {
	l.heapPos = int32(len(ix.h))
	ix.h = append(ix.h, l)
	webSiftUp(ix.h, int(l.heapPos))
}

// ledgerChanged implements ledgerIndex: re-sift in place. Popped
// ledgers (heapPos -1) are fixed up by push instead.
func (ix *webPickIndex) ledgerChanged(l *Ledger) {
	if l.heapPos < 0 {
		return
	}
	i := webSiftUp(ix.h, int(l.heapPos))
	webSiftDown(ix.h, i)
}
