package core

import (
	"fmt"
	"io"

	"livesec/internal/monitor"
)

// WriteOutcome writes the controller's part of a run's digest: what the
// network did, as its users and its operator can tell — how flows were
// set up, what was blocked, drained, shed or lost, how state handoffs
// ended and how long policy went unenforced — then the event log in
// order, less its sequence numbers (the order already says it) and the
// alert engine's transitions (its reading of the run, not the run).
// The rest of Stats counts how the controller got there — messages,
// cache lookups, probes — and may change or go without moving a golden.
// Values are written without field names, so renaming a field moves no
// digest.
func (c *Controller) WriteOutcome(w io.Writer) {
	s := &c.stats
	fmt.Fprintf(w, "{%d %d %d %d %d %d %d %d %d %d %d %v};",
		s.FlowsRouted, s.FlowsChained, s.FlowsBlocked, s.FlowsFailedOpen,
		s.DropRules, s.SuppressRules, s.SessionsDrained, s.PacketInsShed, s.ParkedDrops,
		s.FWHandoffOK, s.FWHandoffTimeout, c.PolicyViolationTime())
	if c.store == nil {
		return
	}
	for _, ev := range c.store.Events(monitor.Filter{}) {
		if ev.Type == monitor.EventAlertFiring || ev.Type == monitor.EventAlertResolved {
			continue
		}
		if k := ev.FlowKey; k != nil {
			fmt.Fprintf(w, "%v;", *k)
		}
		ev.Seq, ev.FlowKey = 0, nil // a pointer prints as its address
		fmt.Fprintf(w, "%v;", ev)
	}
}
