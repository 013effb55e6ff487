package service

import (
	"bytes"
	"time"

	"livesec/internal/ids"
	"livesec/internal/l7"
	"livesec/internal/netpkt"
	"livesec/internal/seproto"
)

// Per-packet CPU costs of the inspection engines, calibrated so a 500
// Mbps element delivers ≈420 Mbps on MTU-sized HTTP traffic under IDS
// (the paper measures 421 Mbps for one element, §V.B.1) and ≈¼ of that
// under the heavier regex-style protocol identification (the deployment
// sustains 8 Gbps IDS but only 2 Gbps protocol identification with the
// same element count).
const (
	idsPerPacketCost = 4 * time.Microsecond
	l7PerPacketCost  = 70 * time.Microsecond
	avPerPacketCost  = 8 * time.Microsecond
	ciPerPacketCost  = 2 * time.Microsecond
)

// IDSInspector adapts an ids.Engine to the Inspector interface.
type IDSInspector struct {
	Engine *ids.Engine
}

// NewIDS builds an intrusion-detection inspector from rule text.
func NewIDS(ruleText string) (*IDSInspector, error) {
	rs, err := ids.Compile(ruleText)
	if err != nil {
		return nil, err
	}
	return NewIDSOver(rs), nil
}

// NewIDSOver builds an intrusion-detection inspector over an already
// compiled rule set. A pool of elements running the same rules compiles
// them once and gives every element its own inspector over the result.
func NewIDSOver(rs *ids.Ruleset) *IDSInspector {
	return &IDSInspector{Engine: rs.NewEngine()}
}

// ServiceType implements Inspector.
func (i *IDSInspector) ServiceType() seproto.ServiceType { return seproto.ServiceIDS }

// PerPacketCost implements Inspector.
func (i *IDSInspector) PerPacketCost() time.Duration { return idsPerPacketCost }

// Inspect implements Inspector.
func (i *IDSInspector) Inspect(pkt *netpkt.Packet) []Verdict {
	alerts := i.Engine.Inspect(pkt)
	if len(alerts) == 0 {
		return nil
	}
	out := make([]Verdict, len(alerts))
	for n, a := range alerts {
		out[n] = Verdict{
			Class:    seproto.EventAttack,
			Severity: a.Severity,
			SigID:    a.SID,
			Detail:   a.Msg,
		}
	}
	return out
}

// L7Inspector adapts an l7.Classifier: it reports one EventProtocol per
// session when the protocol is first identified.
type L7Inspector struct {
	Classifier *l7.Classifier
}

// NewL7 builds a protocol-identification inspector.
func NewL7() *L7Inspector { return &L7Inspector{Classifier: l7.NewClassifier()} }

// ServiceType implements Inspector.
func (i *L7Inspector) ServiceType() seproto.ServiceType { return seproto.ServiceL7 }

// PerPacketCost implements Inspector.
func (i *L7Inspector) PerPacketCost() time.Duration { return l7PerPacketCost }

// Inspect implements Inspector.
func (i *L7Inspector) Inspect(pkt *netpkt.Packet) []Verdict {
	before := i.Classifier.Classified
	proto := i.Classifier.Classify(pkt)
	if i.Classifier.Classified == before {
		return nil // nothing newly identified
	}
	return []Verdict{{
		Class:  seproto.EventProtocol,
		Detail: string(proto),
	}}
}

// AVInspector is a minimal virus scanner: it flags payloads containing
// any of a set of byte signatures (the EICAR test string by default).
type AVInspector struct {
	Signatures map[uint32][]byte
}

// NewAV builds a virus-scanning inspector with the default signature set.
func NewAV() *AVInspector {
	return &AVInspector{Signatures: map[uint32][]byte{
		9001: []byte(`X5O!P%@AP[4\PZX54(P^)7CC)7}$EICAR`),
		9002: {0x4d, 0x5a, 0x90, 0x00, 0x03}, // PE stub head used by test samples
	}}
}

// ServiceType implements Inspector.
func (i *AVInspector) ServiceType() seproto.ServiceType { return seproto.ServiceAV }

// PerPacketCost implements Inspector.
func (i *AVInspector) PerPacketCost() time.Duration { return avPerPacketCost }

// Inspect implements Inspector.
func (i *AVInspector) Inspect(pkt *netpkt.Packet) []Verdict {
	if len(pkt.Payload) == 0 {
		return nil
	}
	var out []Verdict
	for sig, pattern := range i.Signatures {
		if bytes.Contains(pkt.Payload, pattern) {
			out = append(out, Verdict{
				Class:    seproto.EventVirus,
				Severity: 250,
				SigID:    sig,
				Detail:   "virus signature",
			})
		}
	}
	return out
}

// CIInspector is a content-inspection engine flagging configured
// forbidden keywords (e.g. data-loss prevention terms).
type CIInspector struct {
	Keywords [][]byte
}

// NewCI builds a content inspector for the given keywords.
func NewCI(keywords ...string) *CIInspector {
	ci := &CIInspector{}
	for _, k := range keywords {
		ci.Keywords = append(ci.Keywords, []byte(k))
	}
	return ci
}

// ServiceType implements Inspector.
func (i *CIInspector) ServiceType() seproto.ServiceType { return seproto.ServiceCI }

// PerPacketCost implements Inspector.
func (i *CIInspector) PerPacketCost() time.Duration { return ciPerPacketCost }

// Inspect implements Inspector.
func (i *CIInspector) Inspect(pkt *netpkt.Packet) []Verdict {
	if len(pkt.Payload) == 0 {
		return nil
	}
	var out []Verdict
	for n, kw := range i.Keywords {
		if bytes.Contains(pkt.Payload, kw) {
			out = append(out, Verdict{
				Class:    seproto.EventContent,
				Severity: 80,
				SigID:    uint32(10000 + n),
				Detail:   "content policy: " + string(kw),
			})
		}
	}
	return out
}
