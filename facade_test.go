package livesec_test

import (
	"testing"
	"time"

	"livesec"
)

// TestFacadeInspectorConstructors covers all four service constructors
// end to end on one network.
func TestFacadeInspectorConstructors(t *testing.T) {
	if _, err := livesec.NewIDS("alert nonsense"); err == nil {
		t.Fatal("NewIDS accepted bad rules")
	}
	insp, err := livesec.NewIDS(livesec.CommunityRules)
	if err != nil {
		t.Fatal(err)
	}
	pt := livesec.NewPolicyTable(livesec.Allow)
	if err := pt.Add(&livesec.PolicyRule{
		Name: "full", Priority: 10,
		Match:  livesec.PolicyMatch{DstPort: 80},
		Action: livesec.Chain,
		Services: []livesec.ServiceType{
			livesec.ServiceIDS, livesec.ServiceL7, livesec.ServiceAV, livesec.ServiceCI,
		},
	}); err != nil {
		t.Fatal(err)
	}
	net := livesec.NewNetwork(livesec.Options{Policies: pt, Monitor: true,
		Config: livesec.ControllerConfig{SteerForwardOnly: true}})
	s1 := net.AddOvS("s1")
	s2 := net.AddOvS("s2")
	u := net.AddWiredUser(s1, "u", livesec.IP(10, 0, 0, 1))
	srv := net.AddServer(s2, "srv", livesec.IP(166, 111, 1, 1))
	net.AddElement(s2, insp, 0)
	net.AddElement(s2, livesec.NewL7(), 0)
	net.AddElement(s1, livesec.NewAV(), 0)
	net.AddElement(s1, livesec.NewCI("SECRET"), 0)
	if err := net.Discover(); err != nil {
		t.Fatal(err)
	}
	defer net.Shutdown()
	if err := net.Run(600 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	got := 0
	srv.HandleTCP(80, func(*livesec.Packet) { got++ })
	u.SendTCP(srv.IP, 50000, 80, []byte("GET / HTTP/1.1\r\n"), 0)
	if err := net.Run(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("4-service chain did not deliver (got=%d)", got)
	}
	for i, el := range net.Elements {
		if el.Stats().Packets == 0 {
			t.Fatalf("element %d skipped", i)
		}
	}
	if net.Store.Count(livesec.EventProtocol) == 0 {
		t.Fatal("no protocol event from the L7 stage")
	}
}

func TestFacadePrefixHelpers(t *testing.T) {
	p := livesec.CIDR(10, 1, 0, 0, 16)
	if !p.Matches(livesec.IP(10, 1, 2, 3)) || p.Matches(livesec.IP(10, 2, 0, 0)) {
		t.Fatal("CIDR helper broken")
	}
	h := livesec.HostIP(livesec.IP(1, 2, 3, 4))
	if !h.Matches(livesec.IP(1, 2, 3, 4)) || h.Matches(livesec.IP(1, 2, 3, 5)) {
		t.Fatal("HostIP helper broken")
	}
}

func TestFacadeAlgorithmsExposed(t *testing.T) {
	for _, a := range []livesec.Algorithm{
		livesec.RoundRobin, livesec.HashDispatch, livesec.ShortestQueue,
		livesec.LeastLoad, livesec.RandomDispatch,
	} {
		if a.String() == "unknown" {
			t.Fatalf("algorithm %d unnamed", a)
		}
	}
	if livesec.FlowGrain == livesec.UserGrain {
		t.Fatal("grains collide")
	}
}

func TestFacadeMustIDSPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustIDS did not panic on bad rules")
		}
	}()
	livesec.MustIDS("garbage rules")
}

func TestFacadeDHCPAndLinkParams(t *testing.T) {
	net := livesec.NewNetwork(livesec.Options{
		Config: livesec.ControllerConfig{DHCP: livesec.DHCPPool{Base: livesec.IP(10, 50, 0, 1), Size: 2}},
	})
	s1 := net.AddOvS("s1")
	h := net.AddHost(s1, "h", livesec.IP(0, 0, 0, 0), livesec.LinkParams{BitsPerSec: livesec.Rate100M})
	if err := net.Discover(); err != nil {
		t.Fatal(err)
	}
	defer net.Shutdown()
	h.RequestIP(9, nil)
	if err := net.Run(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if h.IP != livesec.IP(10, 50, 0, 1) {
		t.Fatalf("leased %v", h.IP)
	}
}
