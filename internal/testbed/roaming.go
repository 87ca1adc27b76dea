package testbed

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/phy"
)

// Roam moves a client's association from its current AP to APs[toAP],
// transferring FastACK flow state when both APs run the agent (§5.5.4:
// "FastACK must implement a mechanism to detect the roam and to transfer
// state from the roam-from AP to the roam-to AP"). The wired switch
// immediately re-learns the client's port, so subsequent downlink traffic
// arrives at the roam-to AP; packets still queued at the roam-from AP's
// radio drain over the shared medium and are either heard by the client
// (same room) or recovered by the transferred retransmission cache.
func (tb *Testbed) Roam(clientIdx, toAP int) error {
	if clientIdx < 0 || clientIdx >= len(tb.Clients) {
		return fmt.Errorf("testbed: no client %d", clientIdx)
	}
	if toAP < 0 || toAP >= len(tb.APs) {
		return fmt.Errorf("testbed: no AP %d", toAP)
	}
	c := tb.Clients[clientIdx]
	from := c.AP
	to := tb.APs[toAP]
	if from == to {
		return nil
	}

	// Re-home the association. Frames still queued at the roam-from radio
	// are flushed: the distribution system now delivers through the
	// roam-to AP, and anything lost in the gap is covered by the
	// transferred retransmission cache (or the sender's SACK recovery).
	from.Station.FlushDst(c.Station.ID)
	c.AP = to
	tb.Medium.SetSNR(to.Station.ID, c.Station.ID, c.SNR)

	// Transfer FastACK state for every flow addressed to this client: the
	// download flow and, when the client runs an upload, the dormant
	// reverse-direction flow (its server-side ACK stream still addresses
	// the client, so the roam-to agent should inherit what the roam-from
	// agent learned about it).
	if from.Agent != nil && to.Agent != nil {
		flows := []packet.Flow{downloadFlow(c.Index)}
		if c.Uplink != nil {
			flows = append(flows, uploadFlow(c.Index))
		}
		for _, flow := range flows {
			ex, ok := from.Agent.Export(flow)
			if !ok {
				continue
			}
			resync := to.Agent.Import(ex)
			from.Agent.Drop(flow)
			// Re-advertise the window from the new AP so a sender stalled
			// on the roam-from AP's last advertisement resumes. A bypassed
			// or dormant (never-saw-data) flow yields no resync ACK — it
			// does not impersonate the client.
			if resync != nil {
				tb.wireToSender(resync)
			}
			// Re-drive the cache into the roam-to radio: the flushed
			// frames reach the client ahead of any end-to-end repair.
			for _, d := range ex.Cache {
				to.Station.Enqueue(d, c.Station.ID, phy.ACBE)
			}
		}
	}
	return nil
}
