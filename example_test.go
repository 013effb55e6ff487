package livesec_test

import (
	"fmt"
	"time"

	"livesec"
)

// ExampleNewNetwork builds the smallest steering deployment and blocks
// an attack at its ingress switch.
func ExampleNewNetwork() {
	policies := livesec.NewPolicyTable(livesec.Allow)
	_ = policies.Add(&livesec.PolicyRule{
		Name:     "inspect-web",
		Priority: 10,
		Match:    livesec.PolicyMatch{DstPort: 80},
		Action:   livesec.Chain,
		Services: []livesec.ServiceType{livesec.ServiceIDS},
	})
	net := livesec.NewNetwork(livesec.Options{Policies: policies, Monitor: true})
	ovs1 := net.AddOvS("ovs1")
	ovs2 := net.AddOvS("ovs2")
	alice := net.AddWiredUser(ovs1, "alice", livesec.IP(10, 0, 0, 1))
	web := net.AddServer(ovs2, "web", livesec.IP(166, 111, 1, 1))
	net.AddElement(ovs2, livesec.MustIDS(livesec.CommunityRules), 0)
	_ = net.Discover()
	defer net.Shutdown()
	_ = net.Run(600 * time.Millisecond)

	web.HandleTCP(80, func(*livesec.Packet) {})
	_ = livesec.SendAttack(alice, web.IP, "sql-injection", 50001)
	_ = net.Run(100 * time.Millisecond)

	fmt.Println("attacks detected:", net.Store.Count(livesec.EventAttack))
	fmt.Println("drop rules:", net.Controller.Stats().DropRules)
	// Output:
	// attacks detected: 1
	// drop rules: 1
}

// ExamplePolicyTable shows priority-ordered policy evaluation.
func ExamplePolicyTable() {
	pt := livesec.NewPolicyTable(livesec.Allow)
	_ = pt.Add(&livesec.PolicyRule{
		Name: "block-guests-to-servers", Priority: 100,
		Match:  livesec.PolicyMatch{SrcIP: livesec.CIDR(10, 99, 0, 0, 16), DstIP: livesec.CIDR(10, 1, 0, 0, 16)},
		Action: livesec.Deny,
	})
	_ = pt.Add(&livesec.PolicyRule{
		Name: "inspect-web", Priority: 10,
		Match:    livesec.PolicyMatch{DstPort: 80},
		Action:   livesec.Chain,
		Services: []livesec.ServiceType{livesec.ServiceIDS},
	})
	for _, r := range pt.Rules() {
		fmt.Printf("%d %s → %s\n", r.Priority, r.Name, r.Action)
	}
	// Output:
	// 100 block-guests-to-servers → deny
	// 10 inspect-web → chain
}

// ExampleBuildFIT boots the paper's campus deployment shape.
func ExampleBuildFIT() {
	f, err := livesec.BuildFIT(livesec.ScaledFIT(), livesec.Options{})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer f.Shutdown()
	_ = f.Run(600 * time.Millisecond)
	fmt.Println("full mesh:", f.Controller.FullMesh())
	fmt.Println("elements online:", len(f.Controller.Elements()))
	// Output:
	// full mesh: true
	// elements online: 6
}
