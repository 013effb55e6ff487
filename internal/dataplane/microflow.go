package dataplane

import "livesec/internal/flow"

// microflowCap bounds the cache. When full, new winners are simply not
// remembered until the next invalidation empties the map — never evict,
// so cache content (and therefore the hit/miss counters) stays a pure
// deterministic function of the lookup stream.
const microflowCap = 8192

// MicroflowStats counts microflow-cache effectiveness; the switch
// reports them in OFPST_TABLE replies and the monitor's topology
// snapshot surfaces them per switch.
type MicroflowStats struct {
	// Hits counts lookups answered from the cache.
	Hits uint64 `json:"hits"`
	// Misses counts lookups that fell through to the flow table.
	Misses uint64 `json:"misses"`
	// Invalidations counts wholesale flushes forced by a flow-table
	// generation change (flow-mod, delete, or expiry).
	Invalidations uint64 `json:"invalidations"`
}

// microflowCache is the OVS-style exact-match fast path in front of
// FlowTable.Lookup: the full 12-tuple key of a packet maps straight to a
// reference to the winning entry (which may itself be a wildcard rule),
// so the map holds no pointer for the collector to scan, skipping the
// exact-map probe plus the mask-bucket scan on every subsequent packet
// of the same microflow.
//
// Correctness rests on the flow table's generation counter: the cache
// remembers the generation it was filled under and discards everything
// the moment the table's generation differs, so an entry installed,
// replaced, deleted, or expired since the fill can never be served
// stale. Within one generation Lookup is a pure function of the key,
// which makes memoizing it sound.
type microflowCache struct {
	gen     uint64
	entries map[flow.Key]ref
	stats   MicroflowStats
}

func newMicroflowCache() *microflowCache {
	return &microflowCache{entries: make(map[flow.Key]ref)}
}

// lookup consults the cache, falling back to the table on a miss and
// remembering a positive result. Negative results are not cached: a
// miss raises a packet-in whose flow-mod response bumps the table
// generation anyway, so a negative entry would be flushed before it
// could ever be useful.
func (c *microflowCache) lookup(t *FlowTable, k flow.Key) ref {
	if g := t.Gen(); g != c.gen {
		if len(c.entries) > 0 {
			clear(c.entries)
			c.stats.Invalidations++
		}
		c.gen = g
	}
	if r, ok := c.entries[k]; ok {
		c.stats.Hits++
		return r
	}
	c.stats.Misses++
	r := t.lookup(k)
	if r != noRef && len(c.entries) < microflowCap {
		c.entries[k] = r
	}
	return r
}
