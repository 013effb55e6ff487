package core

// White-box tests of the ordered service-element index (elemOrder) and
// the per-setup pick that walks it.

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"livesec/internal/flow"
	"livesec/internal/loadbalance"
	"livesec/internal/netpkt"
	"livesec/internal/openflow"
	"livesec/internal/policy"
	"livesec/internal/seproto"
	"livesec/internal/sim"
)

// sinkConn is a secure channel that swallows everything the controller
// sends; tests feed the controller through the handler it registers.
type sinkConn struct{ deliver func(openflow.Message) }

func (c *sinkConn) Send(openflow.Message)                { /* discard */ }
func (c *sinkConn) SendBatch([]openflow.Message)         { /* discard */ }
func (c *sinkConn) SetHandler(fn func(openflow.Message)) { c.deliver = fn }
func (c *sinkConn) Close() error                         { return nil }

// elemController is a controller with registered, port-less switches
// that service elements can report in on.
func elemController(dpids ...uint64) *Controller {
	c := New(Config{Engine: sim.NewEngine(1)})
	for _, d := range dpids {
		addSinkSwitch(c, d)
	}
	return c
}

func addSinkSwitch(c *Controller, dpid uint64) {
	conn := &sinkConn{}
	c.AddSwitch(conn)
	conn.deliver(&openflow.FeaturesReply{DPID: dpid})
}

// seOnline delivers one certified ONLINE report for element id from the
// given attachment point.
func seOnline(c *Controller, dpid uint64, port uint32, id uint64, svc seproto.ServiceType, load seproto.Load) {
	mac := netpkt.MACFromUint64(0x5E0000 + id)
	pkt := netpkt.NewUDP(mac, netpkt.MAC{}, netpkt.IP(10, 9, byte(id>>8), byte(id)), netpkt.IP(10, 0, 0, 1), 1, 1, nil)
	c.handleSEOnline(c.switches[dpid], port, pkt, &seproto.Online{SEID: id, Service: svc, Cert: c.Certify(id, mac), Load: load})
}

// checkElemIndex asserts the index invariant: elemOrder is exactly the
// elements map's values in strictly ascending ID order, and each
// service's bySvc list is elemOrder's elements of that service.
func checkElemIndex(t *testing.T, c *Controller, when string) {
	t.Helper()
	if len(c.elemOrder) != len(c.elements) {
		t.Fatalf("%s: index holds %d elements, map %d", when, len(c.elemOrder), len(c.elements))
	}
	for i, se := range c.elemOrder {
		if c.elements[se.id] != se {
			t.Fatalf("%s: index slot %d (se%d) is not the map's entry", when, i, se.id)
		}
		if i > 0 && c.elemOrder[i-1].id >= se.id {
			t.Fatalf("%s: index out of order at slot %d: se%d then se%d", when, i, c.elemOrder[i-1].id, se.id)
		}
	}
	for i, info := range c.Elements() {
		if info.ID != c.elemOrder[i].id {
			t.Fatalf("%s: Elements()[%d] = se%d, want se%d", when, i, info.ID, c.elemOrder[i].id)
		}
	}
	n := 0
	for svc, list := range c.bySvc {
		want := slices.DeleteFunc(slices.Clone(c.elemOrder), func(se *seState) bool { return se.service != svc })
		if !slices.Equal(list, want) {
			t.Fatalf("%s: bySvc[%v] holds %d elements, elemOrder %d of that service", when, svc, len(list), len(want))
		}
		n += len(list)
	}
	if n != len(c.elemOrder) {
		t.Fatalf("%s: bySvc lists %d elements, elemOrder %d", when, n, len(c.elemOrder))
	}
}

// TestElementIndexConsistency drives random sequences of everything that
// adds, changes or removes an element — ONLINE (new, repeat, service
// change, attachment move), heartbeat timeout, RemoveSwitch — and checks
// the index invariant after every step.
func TestElementIndexConsistency(t *testing.T) {
	dpids := []uint64{1, 2, 3, 4}
	services := []seproto.ServiceType{seproto.ServiceIDS, seproto.ServiceL7, seproto.ServiceFW}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := elemController(dpids...)
		var expired, removed int
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 6:
				// Any ID from a small pool, any service, any attachment: new
				// registrations, repeats, service changes and moves all occur.
				dpid := dpids[rng.Intn(len(dpids))]
				if _, up := c.switches[dpid]; !up {
					addSinkSwitch(c, dpid)
				}
				id := uint64(1 + rng.Intn(24))
				seOnline(c, dpid, uint32(1+rng.Intn(3)), id, services[rng.Intn(len(services))], seproto.Load{})
			case op < 8:
				// Let time pass, refresh a random subset, expire the rest.
				_ = c.eng.Run(c.eng.Now() + defaultSETimeout + time.Second)
				for _, se := range c.elemOrder {
					if _, up := c.switches[se.dpid]; up && rng.Intn(2) == 0 {
						seOnline(c, se.dpid, se.port, se.id, se.service, seproto.Load{})
					}
				}
				before := len(c.elements)
				c.housekeep()
				expired += before - len(c.elements)
			default:
				before := len(c.elements)
				c.RemoveSwitch(dpids[rng.Intn(len(dpids))])
				removed += before - len(c.elements)
			}
			checkElemIndex(t, c, "seed "+uitoa(uint64(seed))+" step "+uitoa(uint64(step)))
		}
		if expired == 0 || removed == 0 {
			t.Fatalf("seed %d never exercised a removal path: expired=%d removed=%d", seed, expired, removed)
		}
	}
}

// churnPool registers sim_churn's element pool — 160 IDS and 40 L7
// elements over ten switches, loads spread so the minimum is not first —
// and returns the controller plus the flow key of a chained setup.
func churnPool() (*Controller, flow.Key) {
	dpids := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	c := elemController(dpids...)
	for id := uint64(1); id <= 200; id++ {
		svc := seproto.ServiceIDS
		if id > 160 {
			svc = seproto.ServiceL7
		}
		seOnline(c, dpids[id%10], uint32(id), id, svc, seproto.Load{Packets: id * 7 % 200})
	}
	key := flow.Key{EthSrc: netpkt.MACFromUint64(7), EthType: netpkt.EtherTypeIPv4,
		IPSrc: netpkt.IP(10, 1, 0, 7), IPDst: netpkt.IP(10, 0, 0, 1),
		IPProto: netpkt.ProtoTCP, SrcPort: 40000, DstPort: 80}
	return c, key
}

// TestPickElementZeroAllocs is the tripwire for the element half of the
// per-setup critical path: picking one of 160 eligible elements out of a
// 200-element pool allocates nothing.
func TestPickElementZeroAllocs(t *testing.T) {
	c, key := churnPool()
	bal := c.balancer(loadbalance.LeastLoad, loadbalance.FlowGrain)
	want := uint64(0)
	for _, se := range c.elemOrder {
		if se.service == seproto.ServiceIDS && (want == 0 || se.load.Packets < c.elements[want].load.Packets) {
			want = se.id
		}
	}
	if _, id, ok := c.pickElement(bal, seproto.ServiceIDS, key); !ok || id != want {
		t.Fatalf("picked se%d ok=%v, want se%d (least loaded IDS)", id, ok, want)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, ok := c.pickElement(bal, seproto.ServiceIDS, key); !ok {
			t.Fatal("no element picked")
		}
	}); allocs != 0 {
		t.Fatalf("pickElement allocs/run = %v over a 160-of-200 pool, want 0", allocs)
	}
}

// BenchmarkPickElement is in the bench-hot set: one least-load,
// flow-grain pick over sim_churn's pool (160 IDS + 40 L7 elements).
func BenchmarkPickElement(b *testing.B) {
	c, key := churnPool()
	bal := c.balancer(loadbalance.LeastLoad, loadbalance.FlowGrain)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := c.pickElement(bal, seproto.ServiceIDS, key); !ok {
			b.Fatal("no element picked")
		}
	}
}

// TestUserPinsForgottenWithHosts pushes 5,000 one-flow users through a
// user-grain chain — a spoofed-source flood looks the same — and checks
// the balancer's sticky pins leave with the hosts: HostTTL later none is
// left, and a user who returns is pinned afresh.
func TestUserPinsForgottenWithHosts(t *testing.T) {
	const users = 5000
	rule := chainRule(false, seproto.ServiceIDS)
	rule.Grain = loadbalance.UserGrain
	pt := policy.NewTable(policy.Allow)
	if err := pt.Add(rule); err != nil {
		t.Fatal(err)
	}
	elems := []rigElem{ids1onSw2, {id: 2, svc: seproto.ServiceIDS, dpid: 3, port: 10}}
	r := newSetupRig(t, Config{Policies: pt, HostTTL: 2 * time.Second}, goldenDPIDs, goldenHosts, elems)
	r.keep = false
	user := func(i int) rigHost {
		return rigHost{dpid: 1, port: 1, mac: netpkt.MACFromUint64(0x100000 + uint64(i)),
			ip: netpkt.IP(10, 1, byte(i>>8), byte(i))}
	}
	for i := 0; i < users; i++ {
		r.flowIn(user(i), hostC, 40000)
	}
	bal := r.c.balancer(rule.Algorithm, rule.Grain)
	if got := bal.Pinned(); got != users || r.c.stats.FlowsChained != users {
		t.Fatalf("%d users pinned over %d chained flows, want %d", got, r.c.stats.FlowsChained, users)
	}

	advance(t, r.c, 3*time.Second)
	r.c.housekeep()
	if got := bal.Pinned(); got != 0 {
		t.Fatalf("%d users still pinned after every host expired", got)
	}

	// The network comes back; one user returns.
	r.announce(hostC)
	for _, e := range elems {
		r.online(e)
	}
	r.flowIn(user(0), hostC, 40001)
	if got := bal.Pinned(); got != 1 || r.c.stats.FlowsChained != users+1 {
		t.Fatalf("returning user: %d pinned, %d chained flows; want 1 and %d", got, r.c.stats.FlowsChained, users+1)
	}
}
