package core_test

// Integration tests of the sharded control plane (PR 7): accounting
// neutrality of the default sharding mode, shard-lane scale-out and its
// one-shard equivalence to the naive FIFO, cross-shard setup and
// replication accounting, coordination-latency installs under barriers,
// and hot-standby failover with shadow replay and queue drain.

import (
	"fmt"
	"testing"
	"time"

	"livesec/internal/core"
	"livesec/internal/host"
	"livesec/internal/monitor"
	"livesec/internal/netpkt"
	"livesec/internal/testbed"
)

// shardNet builds clients on nClients separate switches and a server on
// one more, so with several shards the client switches spread across
// owners.
func shardNet(t *testing.T, nClients int, opts testbed.Options) (*testbed.Net, []*host.Host, *host.Host) {
	t.Helper()
	n := testbed.New(opts)
	clients := make([]*host.Host, nClients)
	for i := range clients {
		sw := n.AddOvS(fmt.Sprintf("ovs%d", i+1))
		clients[i] = n.AddWiredUser(sw, fmt.Sprintf("c%d", i), netpkt.IP(10, 0, 1, byte(i+1)))
	}
	srv := n.AddServer(n.AddOvS("ovssrv"), "server", serverIP)
	if err := n.Discover(); err != nil {
		t.Fatal(err)
	}
	// Warmup: settle ARP caches and attachment points.
	for _, c := range clients {
		c.SendUDP(serverIP, 19000, 9001, []byte("warm"), 0)
	}
	if err := n.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	return n, clients, srv
}

// shardWorkload sends per-client flow bursts and returns the delivered
// count after the run window.
func shardWorkload(t *testing.T, n *testbed.Net, clients []*host.Host, srv *host.Host, flows int, window time.Duration) int {
	t.Helper()
	delivered := 0
	srv.HandleUDP(9000, func(*netpkt.Packet) { delivered++ })
	for i, c := range clients {
		for f := 0; f < flows; f++ {
			c.SendUDP(serverIP, uint16(20000+i*flows+f), 9000, []byte("x"), 0)
		}
	}
	if err := n.Run(window); err != nil {
		t.Fatal(err)
	}
	return delivered
}

// neutralFingerprint renders the controller stats with the shard-only
// counters zeroed, so sharded and unsharded runs can be compared.
func neutralFingerprint(n *testbed.Net) string {
	st := n.Controller.Stats()
	st.ShardCrossSetups = 0
	st.ShardCrossInstalls = 0
	st.ShardCoordMsgs = 0
	st.ShardReplEntries = 0
	return fmt.Sprintf("%+v", st)
}

// TestShardsAccountingNeutral is the byte-identity property at test
// granularity: the same deployment and workload at Shards: 4 produces
// exactly the unsharded controller statistics (shard-only counters
// aside) and the same deliveries — the default shard layer attributes
// work without touching the message streams.
func TestShardsAccountingNeutral(t *testing.T) {
	run := func(shards int) (string, int) {
		n, clients, srv := shardNet(t, 4, testbed.Options{Config: core.Config{Shards: shards, FlowIdle: time.Minute}})
		defer n.Shutdown()
		got := shardWorkload(t, n, clients, srv, 3, 200*time.Millisecond)
		return neutralFingerprint(n), got
	}
	fp1, d1 := run(0)
	fp4, d4 := run(4)
	if d1 != d4 {
		t.Fatalf("deliveries diverged: unsharded %d, 4 shards %d", d1, d4)
	}
	if fp1 != fp4 {
		t.Fatalf("stats diverged:\nunsharded: %s\n4 shards:  %s", fp1, fp4)
	}
}

// TestShardAccounting checks the attribution itself: with four shards,
// messages and setups land on the owners the ring reports, cross-shard
// setups and installs are counted on both sides, and every learned fact
// is replicated to all peers.
func TestShardAccounting(t *testing.T) {
	n, clients, srv := shardNet(t, 6, testbed.Options{Config: core.Config{Shards: 4, FlowIdle: time.Minute}})
	defer n.Shutdown()
	if got := n.Controller.Shards(); got != 4 {
		t.Fatalf("Shards() = %d, want 4", got)
	}
	shardWorkload(t, n, clients, srv, 2, 200*time.Millisecond)

	stats := n.Controller.ShardStats()
	if len(stats) != 4 {
		t.Fatalf("ShardStats len = %d, want 4", len(stats))
	}
	var msgs, owned, crossOut, crossIn, replOut, replIn uint64
	for _, s := range stats {
		if !s.Alive {
			t.Fatalf("shard %d not alive", s.ID)
		}
		msgs += s.Msgs
		owned += s.SetupsOwned
		crossOut += s.CrossInstallsOut
		crossIn += s.CrossInstallsIn
		replOut += s.ReplOut
		replIn += s.ReplIn
	}
	if msgs == 0 || owned == 0 {
		t.Fatalf("no work attributed: msgs=%d setups=%d", msgs, owned)
	}
	// Seven switches over four shards: the server switch is a peer of at
	// least one client switch, so cross-shard installs must occur, and
	// both directions must agree.
	if crossOut == 0 || crossOut != crossIn {
		t.Fatalf("cross-install accounting: out=%d in=%d", crossOut, crossIn)
	}
	if n.Controller.Stats().ShardCrossInstalls != crossOut {
		t.Fatalf("global cross-install counter %d != per-shard sum %d",
			n.Controller.Stats().ShardCrossInstalls, crossOut)
	}
	// Every replicated fact goes to all 3 peers.
	if replOut == 0 || replIn != replOut || replOut != 3*n.Controller.Stats().ShardReplEntries {
		t.Fatalf("replication accounting: out=%d in=%d entries=%d",
			replOut, replIn, n.Controller.Stats().ShardReplEntries)
	}
	// Ownership is the ring's word: every switch maps to a live shard.
	for _, sw := range n.Switches {
		id := n.Controller.ShardOf(sw.DPID())
		if id < 0 || id >= 4 || !n.Controller.ShardAlive(id) {
			t.Fatalf("switch %d owned by %d", sw.DPID(), id)
		}
	}
}

// TestShardLanesOneShardMatchesFIFO: with one shard, the shard lane is
// the naive single-FIFO model of overload.go — identical statistics and
// deliveries for the identical workload.
func TestShardLanesOneShardMatchesFIFO(t *testing.T) {
	run := func(lanes bool) (string, int) {
		n, clients, srv := shardNet(t, 4, testbed.Options{
			Config: core.Config{ShardLanes: lanes, Shards: 1,
				PacketInCost: 500 * time.Microsecond,
				FlowIdle:     time.Minute},
		})
		defer n.Shutdown()
		got := shardWorkload(t, n, clients, srv, 3, 300*time.Millisecond)
		return neutralFingerprint(n), got
	}
	fpFIFO, dFIFO := run(false)
	fpLane, dLane := run(true)
	if dFIFO != dLane || fpFIFO != fpLane {
		t.Fatalf("one-shard lane diverged from FIFO:\nFIFO: %d %s\nlane: %d %s",
			dFIFO, fpFIFO, dLane, fpLane)
	}
}

// TestShardLanesScaleOut is the tentpole scale claim at test size: under
// a packet-in backlog that saturates one serialized event loop, four
// shard lanes complete strictly more flow setups in the same window.
func TestShardLanesScaleOut(t *testing.T) {
	run := func(shards int) int {
		n, clients, srv := shardNet(t, 8, testbed.Options{
			Config: core.Config{ShardLanes: true, Shards: shards,
				PacketInCost: 2 * time.Millisecond,
				FlowIdle:     time.Minute},
		})
		defer n.Shutdown()
		return shardWorkload(t, n, clients, srv, 8, 100*time.Millisecond)
	}
	d1 := run(1)
	d4 := run(4)
	if d4 <= d1 {
		t.Fatalf("no scale-out: 1 shard delivered %d, 4 shards %d", d1, d4)
	}
}

// TestShardCoordLatencyDelivers: with explicit cross-shard coordination
// latency and barriered setups, flows still complete (the barrier waits
// for the remote segment) and coordination messages are counted.
func TestShardCoordLatencyDelivers(t *testing.T) {
	n, clients, srv := shardNet(t, 4, testbed.Options{
		Config: core.Config{Shards: 4, ShardCoordLatency: time.Millisecond,
			UseBarriers: true, FlowIdle: time.Minute},
	})
	defer n.Shutdown()
	want := 4 * 2
	got := shardWorkload(t, n, clients, srv, 2, 300*time.Millisecond)
	if got != want {
		t.Fatalf("delivered %d/%d flows under coordination latency", got, want)
	}
	if n.Controller.Stats().ShardCoordMsgs == 0 {
		t.Fatal("no coordination messages counted")
	}
}

// TestShardFailover kills a shard mid-workload: messages from its
// switches park while it is down, the hot standby replays the shadow
// flow table and drains the queue, no flow is lost, the outage is
// charged to policy-violation time, and the keepalive never mistakes
// the failover for dead switches.
func TestShardFailover(t *testing.T) {
	n, clients, srv := shardNet(t, 6, testbed.Options{
		Monitor: true,
		Config: core.Config{Shards: 4, Keepalive: true,
			ShardFailoverDelay: 100 * time.Millisecond,
			FlowIdle:           time.Minute},
	})
	defer n.Shutdown()

	delivered := 0
	srv.HandleUDP(9000, func(*netpkt.Packet) { delivered++ })

	victim := n.Controller.ShardOf(n.Switches[0].DPID())
	if !n.Controller.KillShard(victim) {
		t.Fatalf("KillShard(%d) refused", victim)
	}
	if n.Controller.ShardAlive(victim) {
		t.Fatal("victim still alive after kill")
	}
	if n.Controller.KillShard(victim) {
		t.Fatal("double kill accepted")
	}

	// Fresh flows from every client during the outage: owned switches'
	// packet-ins park, peers proceed.
	sent := 0
	for i, c := range clients {
		c.SendUDP(serverIP, uint16(30000+i), 9000, []byte("x"), 0)
		sent++
	}
	if err := n.Run(50 * time.Millisecond); err != nil { // still down
		t.Fatal(err)
	}
	st := n.Controller.Stats()
	if st.ShardQueuedMsgs == 0 {
		t.Fatal("no messages parked during the outage")
	}
	if err := n.Run(300 * time.Millisecond); err != nil { // takeover + drain
		t.Fatal(err)
	}

	if !n.Controller.ShardAlive(victim) {
		t.Fatal("standby never took over")
	}
	st = n.Controller.Stats()
	if st.ShardKills != 1 || st.ShardTakeovers != 1 {
		t.Fatalf("kills=%d takeovers=%d, want 1/1", st.ShardKills, st.ShardTakeovers)
	}
	if st.ShardShadowReplayed == 0 {
		t.Fatal("takeover replayed no shadow entries")
	}
	if delivered != sent {
		t.Fatalf("flows lost across failover: %d/%d", delivered, sent)
	}
	if got := n.Controller.PolicyViolationTime(); got < 100*time.Millisecond {
		t.Fatalf("outage not charged to policy-violation time: %v", got)
	}
	if st.SwitchDownEvents != 0 {
		t.Fatalf("failover tripped the keepalive: %d switch-downs", st.SwitchDownEvents)
	}
	if n.Store.Count(monitor.EventShardKill) != 1 || n.Store.Count(monitor.EventShardTakeover) != 1 {
		t.Fatalf("events: kill=%d takeover=%d",
			n.Store.Count(monitor.EventShardKill), n.Store.Count(monitor.EventShardTakeover))
	}
}

// TestKillShardOffline: without sharding there is nothing to kill.
func TestKillShardOffline(t *testing.T) {
	n, _, _ := twoSwitchNet(t, testbed.Options{})
	defer n.Shutdown()
	if n.Controller.KillShard(0) {
		t.Fatal("KillShard succeeded on an unsharded controller")
	}
	if n.Controller.Shards() != 1 || n.Controller.ShardOf(1) != 0 || !n.Controller.ShardAlive(0) {
		t.Fatal("unsharded accessors broken")
	}
	if n.Controller.ShardStats() != nil {
		t.Fatal("ShardStats non-nil while unsharded")
	}
}
