// Mobility example (§III.D.1): "the mobility of users and VMs can be
// guaranteed by existing OpenFlow technologies." A laptop joins via the
// DHCP directory, starts a session through an IDS element, roams from
// one OF Wi-Fi AP to another mid-session, and keeps working; then the
// IDS VM itself live-migrates to a different switch and new flows follow
// it. A strict stateful firewall guards the intranet server: the laptop
// establishes a real TCP handshake through it, roams again mid-session —
// the connection state follows the user to whichever firewall element
// the re-steer picks — and an injected out-of-window segment is dropped.
// Finally a blocked user tries to escape by roaming — and fails.
package main

import (
	"fmt"
	"os"
	"time"

	"livesec"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mobility:", err)
		os.Exit(1)
	}
}

func run() error {
	policies := livesec.NewPolicyTable(livesec.Allow)
	if err := policies.Add(&livesec.PolicyRule{
		Name:     "inspect-web",
		Priority: 10,
		Match:    livesec.PolicyMatch{DstPort: 80},
		Action:   livesec.Chain,
		Services: []livesec.ServiceType{livesec.ServiceIDS},
	}); err != nil {
		return err
	}
	// The intranet server sits behind a strict stateful firewall, both
	// directions of the TCP session chained through it.
	intranetIP := livesec.IP(166, 111, 8, 1)
	if err := policies.Add(&livesec.PolicyRule{
		Name:     "fw-intranet-fwd",
		Priority: 20,
		Match:    livesec.PolicyMatch{Proto: livesec.ProtoTCP, DstIP: livesec.HostIP(intranetIP)},
		Action:   livesec.Chain,
		Services: []livesec.ServiceType{livesec.ServiceFW},
	}); err != nil {
		return err
	}
	if err := policies.Add(&livesec.PolicyRule{
		Name:     "fw-intranet-rev",
		Priority: 20,
		Match:    livesec.PolicyMatch{Proto: livesec.ProtoTCP, SrcIP: livesec.HostIP(intranetIP)},
		Action:   livesec.Chain,
		Services: []livesec.ServiceType{livesec.ServiceFW},
	}); err != nil {
		return err
	}
	net := livesec.NewNetwork(livesec.Options{
		Policies: policies,
		Monitor:  true,
		Config: livesec.ControllerConfig{
			DHCP: livesec.DHCPPool{Base: livesec.IP(10, 100, 0, 10), Size: 32},
		},
	})
	ap1 := net.AddWiFi("ap1")
	ap2 := net.AddWiFi("ap2")
	gw := net.AddOvS("gateway")
	seHost := net.AddOvS("sehost")
	server := net.AddServer(gw, "internet", livesec.IP(166, 111, 4, 1))
	intranet := net.AddServer(gw, "intranet", intranetIP)
	ids := net.AddElement(seHost, livesec.MustIDS(livesec.CommunityRules), 0)
	fw1 := net.AddElement(seHost, livesec.NewStrictFirewall(), 0)

	// The laptop joins with no address: the DHCP directory leases one.
	laptop := net.AddHost(ap1, "laptop", livesec.IP(0, 0, 0, 0),
		livesec.LinkParams{BitsPerSec: livesec.Rate43M})
	if err := net.Discover(); err != nil {
		return err
	}
	defer net.Shutdown()
	if err := net.Run(600 * time.Millisecond); err != nil {
		return err
	}
	laptop.RequestIP(1, nil)
	if err := net.Run(50 * time.Millisecond); err != nil {
		return err
	}
	fmt.Printf("1. laptop joined via DHCP directory: leased %s\n", laptop.IP)

	// A web session runs through the IDS element.
	livesec.HTTPServer(server, 80, 5_000)
	responses := 0
	laptop.HandleTCP(50000, func(*livesec.Packet) { responses++ })
	get := func() {
		laptop.SendTCP(server.IP, 50000, 80, []byte("GET / HTTP/1.1\r\n\r\n"), 0)
	}
	get()
	if err := net.Run(100 * time.Millisecond); err != nil {
		return err
	}
	fmt.Printf("2. session up through the IDS element (responses=%d, element packets=%d)\n",
		responses, ids.Stats().Packets)

	// The user roams to the other AP mid-session.
	net.MoveHost(laptop, ap2, livesec.LinkParams{BitsPerSec: livesec.Rate43M})
	get()
	if err := net.Run(200 * time.Millisecond); err != nil {
		return err
	}
	loc, _ := net.Controller.HostByMAC(laptop.MAC)
	fmt.Printf("3. roamed ap1 → ap2: controller sees switch %d; session still works (responses=%d)\n",
		loc.DPID, responses)

	// The IDS VM live-migrates to the gateway switch.
	before := ids.Stats().Packets
	net.MoveElement(ids, gw, 0)
	if err := net.Run(1200 * time.Millisecond); err != nil { // next heartbeat
		return err
	}
	laptop.SendTCP(server.IP, 50001, 80, []byte("GET /again HTTP/1.1\r\n\r\n"), 0)
	if err := net.Run(200 * time.Millisecond); err != nil {
		return err
	}
	elInfo := net.Controller.Elements()[0]
	fmt.Printf("4. IDS VM migrated to switch %d; new flows steered there (element packets %d → %d)\n",
		elInfo.DPID, before, ids.Stats().Packets)

	// A real TCP handshake through the strict stateful firewall. The
	// crafted segments bypass ARP, so teach the controller where the
	// intranet server lives first.
	laptop.SendUDP(intranet.IP, 9, 9, []byte("warm"), 0)
	intranet.SendUDP(laptop.IP, 9, 9, []byte("warm"), 0)
	if err := net.Run(200 * time.Millisecond); err != nil {
		return err
	}
	srvSeen, lapSeen := 0, 0
	intranet.HandleTCP(445, func(*livesec.Packet) { srvSeen++ })
	laptop.HandleTCP(52000, func(*livesec.Packet) { lapSeen++ })
	seg := func(from, to *livesec.Host, sp, dp uint16, seq uint32, fl livesec.TCPFlags) error {
		from.Send(livesec.NewTCPSegment(from, to, sp, dp, seq, fl, []byte("x")))
		return net.Run(100 * time.Millisecond)
	}
	if err := seg(laptop, intranet, 52000, 445, 1, livesec.TCPFlags{SYN: true}); err != nil {
		return err
	}
	if err := seg(intranet, laptop, 445, 52000, 1, livesec.TCPFlags{SYN: true, ACK: true}); err != nil {
		return err
	}
	if err := seg(laptop, intranet, 52000, 445, 2, livesec.TCPFlags{ACK: true}); err != nil {
		return err
	}
	if srvSeen != 2 || lapSeen != 1 {
		return fmt.Errorf("handshake through firewall incomplete (server=%d, client=%d)", srvSeen, lapSeen)
	}
	fmt.Printf("5. TCP session established through the strict stateful firewall (element packets=%d)\n",
		fw1.Stats().Packets)

	// The laptop roams again mid-session. A second firewall element is
	// live now, so the re-steer may land on either — the controller
	// migrates the connection state ahead of the first re-steered packet,
	// and the established session keeps flowing.
	net.AddElement(gw, livesec.NewStrictFirewall(), 0)
	if err := net.Run(600 * time.Millisecond); err != nil {
		return err
	}
	net.MoveHost(laptop, ap1, livesec.LinkParams{BitsPerSec: livesec.Rate43M})
	if err := seg(laptop, intranet, 52000, 445, 3, livesec.TCPFlags{ACK: true}); err != nil {
		return err
	}
	if err := seg(intranet, laptop, 445, 52000, 2, livesec.TCPFlags{ACK: true}); err != nil {
		return err
	}
	if srvSeen != 3 || lapSeen != 2 {
		return fmt.Errorf("session broke across roam (server=%d, client=%d)", srvSeen, lapSeen)
	}
	if net.Store.Count(livesec.EventFWHandoff) == 0 {
		return fmt.Errorf("re-steer stayed on the original firewall; no handoff exercised")
	}
	fmt.Printf("6. roamed ap2 → ap1 mid-session: connection state followed the user (handoffs=%d)\n",
		net.Store.Count(livesec.EventFWHandoff))

	// An injected out-of-window segment never reaches the server.
	attacksBefore := net.Store.Count(livesec.EventAttack)
	if err := seg(laptop, intranet, 52000, 445, 0x70000000, livesec.TCPFlags{ACK: true}); err != nil {
		return err
	}
	if srvSeen != 3 {
		return fmt.Errorf("spoofed segment reached the server")
	}
	if net.Store.Count(livesec.EventAttack) == attacksBefore {
		return fmt.Errorf("spoofed segment drew no attack event")
	}
	fmt.Println("7. injected out-of-window segment dropped at the firewall ✓")

	// A blocked user cannot escape by roaming.
	net.Controller.BlockUser(laptop.MAC, "demo block")
	if err := net.Run(50 * time.Millisecond); err != nil {
		return err
	}
	net.MoveHost(laptop, ap2, livesec.LinkParams{BitsPerSec: livesec.Rate43M})
	respBefore := responses
	get()
	if err := net.Run(300 * time.Millisecond); err != nil {
		return err
	}
	if responses == respBefore {
		fmt.Println("8. blocked user roamed back to ap2 — still blocked at the new ingress ✓")
	} else {
		return fmt.Errorf("blocked user escaped by roaming")
	}
	return nil
}
