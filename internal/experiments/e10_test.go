package experiments

import "testing"

// TestE10ShardScaling pins the experiment's two claims at CI scale:
// setup throughput grows strictly from 1 shard to the top of the sweep,
// and the shard-kill failover loses nothing.
func TestE10ShardScaling(t *testing.T) {
	res := E10ShardScaling(ScaleCI)
	for _, note := range res.Notes {
		if note == "deployment failed to build" || note == "failover deployment failed to build" {
			t.Fatal(note)
		}
	}
	speedup, ok := res.Find("setup throughput scale-out")
	if !ok || speedup <= 1 {
		t.Fatalf("no scale-out: speedup=%v ok=%v", speedup, ok)
	}
	d1, _ := res.Find("flows delivered @1 shards")
	d4, _ := res.Find("flows delivered @4 shards")
	if d4 <= d1 {
		t.Fatalf("4 shards delivered %v <= 1 shard's %v", d4, d1)
	}
	p1, _ := res.Find("p99 setup @1 shards")
	p4, _ := res.Find("p99 setup @4 shards")
	if p4 >= p1 {
		t.Fatalf("p99 did not improve: @1=%vms @4=%vms", p1, p4)
	}
	if v, _ := res.Find("failover: takeovers"); v != 1 {
		t.Fatalf("takeovers=%v, want 1", v)
	}
	if v, _ := res.Find("failover: flows lost"); v != 0 {
		t.Fatalf("flows lost=%v, want 0", v)
	}
	if v, _ := res.Find("failover: false switch-down"); v != 0 {
		t.Fatalf("false switch-downs=%v, want 0", v)
	}
	if v, ok := res.Find("failover: shadow entries replayed"); !ok || v == 0 {
		t.Fatal("takeover replayed no shadow entries")
	}
	// The outage is charged, and bounded: the takeover delay plus one
	// keepalive sweep is a generous ceiling.
	if v, _ := res.Find("failover: policy-violation time"); v <= 0 || v > 1 {
		t.Fatalf("policy-violation time %vs out of bounds", v)
	}
}
