package core_test

import (
	"runtime"
	"sync"
	"testing"

	"slaplace/internal/core"
	"slaplace/internal/shard"
)

// TestCrossClusterShardedConcurrent is the concurrent variant of
// TestCrossClusterPlansBitIdentical: each cluster plans on its own K=4
// sharded controller in its own goroutine, whose shards plan
// concurrently too, while another goroutine keeps poisoning whatever
// arenas are free. Every cluster's digest sequence must equal that
// cluster planned alone. Run it under -race as well: arenas cross
// goroutines through the free list only.
func TestCrossClusterShardedConcurrent(t *testing.T) {
	const cycles = 12
	seqs := core.CrossClusterSeqs(t, cycles)
	nodeIDs, appIDs := core.SeqIDs(seqs)
	plan := func(seq []*core.State) []string {
		c := shard.New(shard.Config{Shards: 4})
		var digests []string
		for _, st := range seq {
			digests = append(digests, c.Plan(st).Digest())
		}
		return digests
	}

	want := make([][]string, len(seqs))
	for k, seq := range seqs {
		want[k] = plan(seq)
	}

	done := make(chan struct{})
	poisoned := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-done:
				poisoned <- n
				return
			default:
				n += core.PoisonFreeArenas(nodeIDs, appIDs)
				runtime.Gosched()
			}
		}
	}()
	got := make([][]string, len(seqs))
	var wg sync.WaitGroup
	for k, seq := range seqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[k] = plan(seq)
		}()
	}
	wg.Wait()
	close(done)
	if <-poisoned == 0 {
		t.Fatal("no free arena was ever poisoned")
	}
	for k := range seqs {
		for cycle := range want[k] {
			if got[k][cycle] != want[k][cycle] {
				t.Errorf("cluster %d cycle %d: concurrent sharded plan differs from the cluster planned alone", k, cycle)
			}
		}
	}
}
