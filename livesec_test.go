package livesec_test

import (
	"testing"
	"time"

	"livesec"
)

// TestFacadeQuickstart runs the package-doc example end to end: policy,
// network, IDS element, traffic, detection, blocking.
func TestFacadeQuickstart(t *testing.T) {
	pt := livesec.NewPolicyTable(livesec.Allow)
	if err := pt.Add(&livesec.PolicyRule{
		Name:     "inspect-web",
		Priority: 10,
		Match:    livesec.PolicyMatch{DstPort: 80},
		Action:   livesec.Chain,
		Services: []livesec.ServiceType{livesec.ServiceIDS},
	}); err != nil {
		t.Fatal(err)
	}
	net := livesec.NewNetwork(livesec.Options{Policies: pt, Monitor: true})
	s1 := net.AddOvS("ovs1")
	s2 := net.AddOvS("ovs2")
	user := net.AddWiredUser(s1, "alice", livesec.IP(10, 0, 0, 1))
	server := net.AddServer(s2, "web", livesec.IP(166, 111, 1, 1))
	net.AddElement(s2, livesec.MustIDS(livesec.CommunityRules), 0)
	if err := net.Discover(); err != nil {
		t.Fatal(err)
	}
	defer net.Shutdown()
	if err := net.Run(600 * time.Millisecond); err != nil {
		t.Fatal(err)
	}

	livesec.HTTPServer(server, 80, 5000)
	got := 0
	user.HandleTCP(50000, func(*livesec.Packet) { got++ })
	user.SendTCP(server.IP, 50000, 80, []byte("GET / HTTP/1.1\r\n\r\n"), 0)
	if err := net.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got == 0 {
		t.Fatal("clean transaction failed")
	}

	// An attack is detected by the element and blocked at the ingress.
	if err := livesec.SendAttack(user, server.IP, "sql-injection", 50001); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if net.Store.Count(livesec.EventAttack) == 0 {
		t.Fatal("attack not recorded")
	}
	if net.Controller.Stats().DropRules == 0 {
		t.Fatal("no drop rule installed")
	}
}

func TestFacadeFITBuild(t *testing.T) {
	f, err := livesec.BuildFIT(livesec.ScaledFIT(), livesec.Options{Monitor: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown()
	if !f.Controller.FullMesh() {
		t.Fatal("FIT not full mesh")
	}
	snap := f.Controller.Topology()
	if len(snap.Switches) == 0 || len(snap.Links) == 0 {
		t.Fatalf("topology snapshot empty: %+v", snap)
	}
}
