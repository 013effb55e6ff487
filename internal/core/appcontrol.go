package core

import (
	"livesec/internal/monitor"
	"livesec/internal/seproto"
)

// Application-aware traffic control (§IV.C): once the protocol
// identification elements classify a flow, the controller "can further
// master the network traffic distribution … and provide more interesting
// function, such as aggregate flow control". This file implements the
// enforcement half: per-application verdicts that block or rate-limit
// the classified session at its ingress switch.

// AppAction is the reaction to an identified application protocol.
type AppAction int

// Application policy actions.
const (
	// AppAllow leaves the flow alone (default).
	AppAllow AppAction = iota
	// AppBlock drops the classified session at its ingress switch.
	AppBlock
)

// SetAppPolicy configures the reaction to an identified application
// protocol (e.g. block "bittorrent"). Pass AppAllow to clear.
func (c *Controller) SetAppPolicy(protocol string, action AppAction) {
	if c.appPolicies == nil {
		c.appPolicies = make(map[string]AppAction)
	}
	if action == AppAllow {
		delete(c.appPolicies, protocol)
		return
	}
	c.appPolicies[protocol] = action
}

// applyAppPolicy reacts to a protocol-identification event.
func (c *Controller) applyAppPolicy(m *seproto.Event) {
	action, ok := c.appPolicies[m.Detail]
	if !ok || action != AppBlock {
		return
	}
	// Block the classified direction at the entrance.
	st := c.dropUserFlow(m.Flow, "application policy: "+m.Detail)
	if st == nil {
		return
	}
	c.record(monitor.Event{Type: monitor.EventAppBlocked, Switch: st.dpid,
		User: m.Flow.EthSrc.String(), Detail: m.Detail})
}
