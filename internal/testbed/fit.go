package testbed

import (
	"fmt"

	"livesec/internal/dataplane"
	"livesec/internal/host"
	"livesec/internal/ids"
	"livesec/internal/netpkt"
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

// BuildFIT assembles a FIT deployment on top of the base options.
// Call Discover (plus a ~600 ms settle for element heartbeats) before
// generating traffic.
func BuildFIT(fo FITOptions, opts Options) (*FIT, error) {
	if fo.IDSHosts+fo.L7Hosts > fo.OvS {
		return nil, fmt.Errorf("testbed: %d+%d element hosts exceed %d OvS",
			fo.IDSHosts, fo.L7Hosts, fo.OvS)
	}
	n := New(opts)
	f := &FIT{Net: n}

	// Every AS switch uplinks into the building's one core switch.
	for i := 0; i < fo.OvS; i++ {
		f.OvSes = append(f.OvSes, n.AddOvS(fmt.Sprintf("ovs%d", i+1)))
	}
	for i := 0; i < fo.APs; i++ {
		f.APs = append(f.APs, n.AddWiFi(fmt.Sprintf("ap%d", i+1)))
	}

	// Gateway: the Internet server hangs off the first OvS.
	f.Gateway = n.AddServer(f.OvSes[0], "gateway", GatewayIP)

	// Service elements: IDS hosts first, then L7 hosts. Every IDS element
	// inspects over the one compiled rule set.
	rules, err := ids.Compile(ids.CommunityRules)
	if err != nil {
		return nil, err
	}
	hostIdx := 0
	for ; hostIdx < fo.IDSHosts; hostIdx++ {
		sw := f.OvSes[hostIdx%len(f.OvSes)]
		for v := 0; v < fo.VMsPerHost; v++ {
			f.IDSElements = append(f.IDSElements, n.AddElement(sw, service.NewIDSOver(rules), 0))
		}
	}
	for ; hostIdx < fo.IDSHosts+fo.L7Hosts; hostIdx++ {
		sw := f.OvSes[hostIdx%len(f.OvSes)]
		for v := 0; v < fo.VMsPerHost; v++ {
			f.L7Elements = append(f.L7Elements, n.AddElement(sw, service.NewL7(), 0))
		}
	}

	// Users.
	for i := 0; i < fo.WiredUsers; i++ {
		sw := f.OvSes[i%len(f.OvSes)]
		u := n.AddWiredUser(sw, fmt.Sprintf("wired%d", i+1), netpkt.IP(10, 1, byte(i>>8), byte(i+1)))
		f.WiredUsers = append(f.WiredUsers, u)
	}
	for i := 0; i < fo.WirelessUsers; i++ {
		ap := f.APs[i%len(f.APs)]
		u := n.AddWirelessUser(ap, fmt.Sprintf("wifi%d", i+1), netpkt.IP(10, 2, byte(i>>8), byte(i+1)))
		f.WirelessUsers = append(f.WirelessUsers, u)
	}
	return f, nil
}
