package chaos

import "livesec/internal/openflow"

// ChannelStats counts faults a Channel inflicted, per direction (tx =
// controller→switch, rx = switch→controller).
type ChannelStats struct {
	TxDropped    uint64
	RxDropped    uint64
	TxDuplicated uint64
	RxDuplicated uint64
}

// Channel interposes on one switch's secure channel (the controller
// side) and inflicts scripted faults: a full outage (SetDown), dropping
// every Nth message, or duplicating every Nth message. With no fault
// active every message passes straight through — same transport write,
// no allocation — so an idle Channel is invisible to the run.
//
// The drop/duplication filters are counter-based per direction, never
// randomized, keeping chaos runs deterministic. Each filter has its own
// counter and can be scoped to one OpenFlow message type
// (SetDropType/SetDupType): a scoped filter counts only matching
// messages, so "drop every 3rd packet-in" leaves echo traffic
// untouched.
type Channel struct {
	inner   openflow.Conn
	handler func(openflow.Message)

	down      bool
	dropEvery int
	dupEvery  int
	dropType  openflow.MsgType
	dupType   openflow.MsgType

	tx    dirCounters
	rx    dirCounters
	stats ChannelStats
}

// dirCounters hold one direction's filter positions: dropCount and
// dupCount count the messages their filter's type scope matches.
type dirCounters struct {
	dropCount uint64
	dupCount  uint64
}

var _ openflow.Conn = (*Channel)(nil)

// WrapConn interposes a Channel on conn and registers it with the
// injector under the switch's dpid. Hand the returned Channel to the
// controller in place of conn.
func (in *Injector) WrapConn(dpid uint64, conn openflow.Conn) *Channel {
	ch := &Channel{inner: conn}
	conn.SetHandler(ch.deliver)
	in.channels[dpid] = ch
	return ch
}

// SetDown severs (true) or restores (false) the channel. While down,
// both directions drop every message.
func (ch *Channel) SetDown(down bool) { ch.down = down }

// Down reports whether the channel is severed.
func (ch *Channel) Down() bool { return ch.down }

// SetDropEvery drops every nth message in each direction; 0 disables.
func (ch *Channel) SetDropEvery(n int) { ch.dropEvery = n }

// SetDupEvery duplicates every nth message in each direction; 0
// disables.
func (ch *Channel) SetDupEvery(n int) { ch.dupEvery = n }

// SetDropType scopes the drop filter to one message type; 0 (the
// default) applies it to, and counts, every message that reaches it
// (a message the drop filter removes never reaches the duplication
// filter). Hello shares wire type 0 and cannot be targeted alone.
func (ch *Channel) SetDropType(t openflow.MsgType) { ch.dropType = t }

// SetDupType scopes the duplication filter the same way.
func (ch *Channel) SetDupType(t openflow.MsgType) { ch.dupType = t }

// Stats returns the inflicted-fault counters.
func (ch *Channel) Stats() ChannelStats { return ch.stats }

// faulty reports whether any fault is active (the slow path).
func (ch *Channel) faulty() bool { return ch.down || ch.dropEvery > 0 || ch.dupEvery > 0 }

// admit applies the active faults to one message, appending the copies
// that survive (0 on drop, 2 on duplication) to out.
func (ch *Channel) admit(m openflow.Message, d *dirCounters, dropped, duped *uint64, out []openflow.Message) []openflow.Message {
	if ch.down {
		*dropped++
		return out
	}
	// Each filter advances only on messages it applies to, so "every
	// Nth" means every Nth message of its type (of any type when
	// unscoped).
	t := m.Type()
	if ch.dropEvery > 0 && (ch.dropType == 0 || t == ch.dropType) {
		d.dropCount++
		if d.dropCount%uint64(ch.dropEvery) == 0 {
			*dropped++
			return out
		}
	}
	out = append(out, m)
	if ch.dupEvery > 0 && (ch.dupType == 0 || t == ch.dupType) {
		d.dupCount++
		if d.dupCount%uint64(ch.dupEvery) == 0 {
			*duped++
			out = append(out, m)
		}
	}
	return out
}

// Send implements openflow.Conn (controller → switch).
func (ch *Channel) Send(m openflow.Message) {
	if !ch.faulty() {
		ch.inner.Send(m)
		return
	}
	out := ch.admit(m, &ch.tx, &ch.stats.TxDropped, &ch.stats.TxDuplicated, nil)
	for _, mm := range out {
		ch.inner.Send(mm)
	}
}

// SendBatch implements openflow.Conn, preserving the one-write-per-
// switch batching of the wrapped transport.
func (ch *Channel) SendBatch(ms []openflow.Message) {
	if !ch.faulty() {
		ch.inner.SendBatch(ms)
		return
	}
	out := make([]openflow.Message, 0, len(ms)+1)
	for _, m := range ms {
		out = ch.admit(m, &ch.tx, &ch.stats.TxDropped, &ch.stats.TxDuplicated, out)
	}
	ch.inner.SendBatch(out)
}

// SetHandler implements openflow.Conn.
func (ch *Channel) SetHandler(fn func(openflow.Message)) { ch.handler = fn }

// Close implements openflow.Conn.
func (ch *Channel) Close() error { return ch.inner.Close() }

// deliver is the wrapped connection's receive callback (switch →
// controller).
func (ch *Channel) deliver(m openflow.Message) {
	if ch.handler == nil {
		return
	}
	if !ch.faulty() {
		ch.handler(m)
		return
	}
	out := ch.admit(m, &ch.rx, &ch.stats.RxDropped, &ch.stats.RxDuplicated, nil)
	for _, mm := range out {
		ch.handler(mm)
	}
}
