package experiments

// shards is the controller shard count injected into every experiment
// deployment that does not pick its own. The global knob is
// behavior-neutral by construction: the default shard layer
// only attributes work to shards (core/shard.go), so -stable snapshots
// are byte-identical at any setting — which scripts/verify.sh and CI
// enforce. Experiments that study sharding itself (E10) set
// Options.Shards explicitly and are unaffected by the global value.
var shards int

// SetShards sets the controller shard count for subsequent experiment
// runs; cmd/livesec-bench wires -shards through here.
func SetShards(n int) { shards = n }

// Shards returns the effective shard count (minimum 1).
func Shards() int {
	if shards < 2 {
		return 1
	}
	return shards
}
