package core

// Hooks for the sharded variant of the cross-cluster test
// (arena_shard_test.go), which lives in package core_test because it
// imports internal/shard.
var (
	CrossClusterSeqs = crossClusterSeqs
	SeqIDs           = seqIDs
	PoisonFreeArenas = poisonFreeArenas
)
