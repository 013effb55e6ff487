package core

import (
	"testing"

	"livesec/internal/netpkt"
	"livesec/internal/openflow"
)

// TestAnnounceHostLowestUplink: a switch with several uplinks announces
// a new host through the lowest-numbered one, not whichever Go's map
// iteration yields first.
func TestAnnounceHostLowestUplink(t *testing.T) {
	r := newSetupRig(t, Config{}, goldenDPIDs, goldenHosts, nil)
	st := r.c.switches[1]
	for port := uint32(90); port < 100; port++ {
		st.uplinks[port] = true
	}
	for i := 0; i < 8; i++ {
		start := len(r.sent)
		r.announce(rigHost{dpid: 1, port: 3, mac: netpkt.MACFromUint64(0xF0 + uint64(i)), ip: netpkt.IP(10, 0, 2, byte(i))})
		po, ok := r.sent[start].m.(*openflow.PacketOut)
		if len(r.sent) != start+1 || !ok {
			t.Fatalf("announcement %d sent %d messages", i, len(r.sent)-start)
		}
		if out := po.Actions[0].(openflow.ActionOutput).Port; out != 90 {
			t.Fatalf("announcement %d left through uplink %d, want 90", i, out)
		}
	}
}
