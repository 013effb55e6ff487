package seproto

import (
	"reflect"
	"testing"

	"livesec/internal/netpkt"
)

// FuzzParseStateHandoff hammers the state-handoff codec (STATE_SYNC /
// STATE_INSTALL / STATE_ACK) with arbitrary payloads: Parse may reject
// garbage but must never panic, and any payload it accepts must
// re-marshal and re-parse to the identical message.
func FuzzParseStateHandoff(f *testing.F) {
	states := []SessionState{
		{
			Key: SessionKey{Proto: netpkt.ProtoTCP,
				LoIP: netpkt.IP(10, 0, 0, 1), HiIP: netpkt.IP(10, 0, 0, 9),
				LoPort: 31000, HiPort: 80},
			State: StateEstablished, OrigLo: true,
			SeqLo: 7, SeqHi: 9, Packets: 12,
		},
		{
			Key: SessionKey{Proto: netpkt.ProtoUDP,
				LoIP: netpkt.IP(10, 0, 0, 3), HiIP: netpkt.IP(10, 0, 0, 4),
				LoPort: 53, HiPort: 53},
			State: StateNew,
		},
	}
	f.Add(MarshalStateSync(&StateSync{SEID: 3, Cert: Cert{1}, States: states}))
	f.Add(MarshalStateInstall(&StateInstall{HandoffID: 8, FromSE: 3, States: states}))
	f.Add(MarshalStateInstall(&StateInstall{HandoffID: 1}))
	f.Add(MarshalStateAck(&StateAck{SEID: 4, HandoffID: 8, Installed: 2}))
	f.Add(MarshalStateInstall(&StateInstall{HandoffID: 8, FromSE: 3})[:6+15])
	f.Add(append(MarshalStateAck(&StateAck{SEID: 4, HandoffID: 8, Installed: 2}), make([]byte, 8)...))
	f.Add([]byte{})
	f.Add([]byte{'L', 'S', 'E', 'C', Version, byte(KindStateSync)})
	f.Add([]byte{'L', 'S', 'E', 'C', 99, byte(KindStateAck)})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Parse(data)
		if err != nil {
			return
		}
		var enc []byte
		switch v := m.(type) {
		case *StateSync:
			enc = MarshalStateSync(v)
		case *StateInstall:
			enc = MarshalStateInstall(v)
		case *StateAck:
			enc = MarshalStateAck(v)
		case *Online:
			enc = MarshalOnline(v)
		case *Event:
			enc = MarshalEvent(v)
		default:
			t.Fatalf("Parse returned unknown type %T", m)
		}
		m2, err := Parse(enc)
		if err != nil {
			t.Fatalf("re-parse of accepted message failed: %v (%#v)", err, m)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("round trip changed the message:\nfirst:  %#v\nsecond: %#v", m, m2)
		}
	})
}
