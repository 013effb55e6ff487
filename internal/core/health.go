package core

import "livesec/internal/monitor"

// Component health rollup backing the monitor's GET /health endpoint.
// Each component reports "ok", "degraded", or "down" from controller
// state only — no history, no wall clock — so the same network state
// always renders the same rollup. The monitor handler computes the
// overall status and folds in the alert summary; the controller only
// knows its own components.

// HealthComponents reports per-subsystem health in fixed order:
// switches, the controller itself (down from an outage until its parked
// messages drain, outage.go), service elements, and firewall state
// migration (when the stateful firewall is on).
func (c *Controller) HealthComponents() []monitor.HealthComponent {
	out := make([]monitor.HealthComponent, 0, 4)

	swTotal, swDown := len(c.switches), 0
	for _, st := range c.switches {
		if st.down {
			swDown++
		}
	}
	swStatus := "ok"
	switch {
	case swTotal > 0 && swDown == swTotal:
		swStatus = "down"
	case swDown > 0:
		swStatus = "degraded"
	}
	out = append(out, monitor.HealthComponent{
		Name:   "switches",
		Status: swStatus,
		Detail: uitoa(uint64(swTotal-swDown)) + "/" + uitoa(uint64(swTotal)) + " reachable",
	})

	ctlStatus := "ok"
	if c.holding {
		ctlStatus = "down"
	}
	out = append(out, monitor.HealthComponent{
		Name:   "controller",
		Status: ctlStatus,
		Detail: uitoa(uint64(len(c.parked))) + " msgs parked",
	})

	seTotal, brOpen := len(c.elements), 0
	for _, se := range c.elements {
		if se.brState == breakerOpen {
			brOpen++
		}
	}
	seStatus := "ok"
	switch {
	case seTotal > 0 && brOpen == seTotal:
		seStatus = "down"
	case brOpen > 0:
		seStatus = "degraded"
	}
	out = append(out, monitor.HealthComponent{
		Name:   "service_elements",
		Status: seStatus,
		Detail: uitoa(uint64(seTotal)) + " registered, " + uitoa(uint64(brOpen)) + " breakers open",
	})

	if c.fwPending != nil {
		// In-flight handoffs are normal; cumulative timeouts mark sessions
		// that fell back to drop-and-relearn since start.
		fwStatus := "ok"
		if c.stats.FWHandoffTimeout > 0 {
			fwStatus = "degraded"
		}
		out = append(out, monitor.HealthComponent{
			Name:   "fw_state_migration",
			Status: fwStatus,
			Detail: uitoa(uint64(len(c.fwPending))) + " handoffs pending, " +
				uitoa(c.stats.FWHandoffTimeout) + " timed out",
		})
	}
	return out
}
