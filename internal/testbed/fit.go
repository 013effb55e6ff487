package testbed

import (
	"fmt"

	"livesec/internal/dataplane"
	"livesec/internal/host"
	"livesec/internal/netpkt"
	"livesec/internal/seproto"
	"livesec/internal/service"
)

// FITOptions shapes the Tsinghua FIT-building deployment of §V: ten
// OpenFlow-enabled switches in two wiring closets, twenty OF Wi-Fi APs
// in meeting rooms, two hundred VM-based service elements (each OvS
// host runs up to twenty VMs sharing its GbE NIC), and fifty users.
// Counts are parameters so tests can run scaled-down replicas.
type FITOptions struct {
	// OvS is the number of OpenFlow-enabled switches (paper: 10).
	OvS int
	// APs is the number of OF Wi-Fi access points (paper: 20).
	APs int
	// IDSHosts of the OvS machines run intrusion-detection VMs
	// (paper split: 8 of 10, giving the ≥8 Gbps IDS aggregate).
	IDSHosts int
	// L7Hosts of the OvS machines run protocol-identification VMs
	// (paper split: 2 of 10, giving the ≥2 Gbps aggregate).
	L7Hosts int
	// VMsPerHost is the element count per OvS machine (paper: 20).
	VMsPerHost int
	// WiredUsers (paper: ≈20) spread across the OvS switches.
	WiredUsers int
	// WirelessUsers (paper: ≈30) spread across the APs.
	WirelessUsers int
}

// FullFIT returns the paper's deployment sizes.
func FullFIT() FITOptions {
	return FITOptions{
		OvS: 10, APs: 20,
		IDSHosts: 8, L7Hosts: 2, VMsPerHost: 20,
		WiredUsers: 20, WirelessUsers: 30,
	}
}

// ScaledFIT returns a small replica with the same shape, for tests.
func ScaledFIT() FITOptions {
	return FITOptions{
		OvS: 3, APs: 2,
		IDSHosts: 2, L7Hosts: 1, VMsPerHost: 2,
		WiredUsers: 2, WirelessUsers: 2,
	}
}

// FIT is a built FIT-building deployment.
type FIT struct {
	*Net
	// Gateway is the Internet-side server behind the gateway OvS.
	Gateway *host.Host
	// OvSes and APs partition the AS switches.
	OvSes []*dataplane.Switch
	APs   []*dataplane.Switch
	// WiredUsers and WirelessUsers partition the user hosts.
	WiredUsers    []*host.Host
	WirelessUsers []*host.Host
	// IDSElements and L7Elements partition the service elements.
	IDSElements []*service.Element
	L7Elements  []*service.Element
}

// GatewayIP is the Internet-side address users talk to.
var GatewayIP = netpkt.IP(166, 111, 4, 100)

// BuildFIT builds and discovers a FIT deployment on top of the base
// options: Build of a Spec whose attach order is the gateway, the IDS
// elements, the L7 elements, the wired users, then the wireless users.
// Run a ~600 ms settle for element heartbeats before generating traffic.
func BuildFIT(fo FITOptions, opts Options) (*FIT, error) {
	if fo.OvS < 1 || fo.IDSHosts+fo.L7Hosts > fo.OvS || fo.APs < 1 && fo.WirelessUsers > 0 {
		return nil, fmt.Errorf("testbed: FIT sizes %+v: every element host and user needs a switch", fo)
	}
	// Every AS switch uplinks into the building's one core switch.
	spec := Spec{Options: opts}
	ovs := func(i int) string { return fmt.Sprintf("ovs%d", i%fo.OvS+1) }
	for i := 0; i < fo.OvS; i++ {
		spec.Switches = append(spec.Switches, SwitchSpec{Name: ovs(i)})
	}
	for i := 0; i < fo.APs; i++ {
		spec.Switches = append(spec.Switches, SwitchSpec{Kind: dataplane.KindWiFi, Name: fmt.Sprintf("ap%d", i+1)})
	}
	// Gateway: the Internet server hangs off the first OvS.
	spec.Nodes = append(spec.Nodes, HostNode(ovs(0), "gateway", GatewayIP, Server))
	// Service elements: IDS hosts first, then L7 hosts.
	for h := 0; h < fo.IDSHosts+fo.L7Hosts; h++ {
		svc := seproto.ServiceIDS
		if h >= fo.IDSHosts {
			svc = seproto.ServiceL7
		}
		for v := 0; v < fo.VMsPerHost; v++ {
			spec.Nodes = append(spec.Nodes, ElementNode(ovs(h), svc))
		}
	}
	for i := 0; i < fo.WiredUsers; i++ {
		spec.Nodes = append(spec.Nodes, HostNode(ovs(i), fmt.Sprintf("wired%d", i+1), netpkt.IP(10, 1, byte(i>>8), byte(i+1)), Wired))
	}
	for i := 0; i < fo.WirelessUsers; i++ {
		spec.Nodes = append(spec.Nodes, HostNode(fmt.Sprintf("ap%d", i%fo.APs+1), fmt.Sprintf("wifi%d", i+1), netpkt.IP(10, 2, byte(i>>8), byte(i+1)), Wireless))
	}
	n, err := Build(spec)
	if err != nil {
		return nil, err
	}
	ids := fo.IDSHosts * fo.VMsPerHost
	users := 1 + fo.WiredUsers
	return &FIT{
		Net:           n,
		Gateway:       n.Hosts[0],
		OvSes:         n.Switches[:fo.OvS:fo.OvS],
		APs:           n.Switches[fo.OvS:],
		WiredUsers:    n.Hosts[1:users:users],
		WirelessUsers: n.Hosts[users:],
		IDSElements:   n.Elements[:ids:ids],
		L7Elements:    n.Elements[ids:],
	}, nil
}
