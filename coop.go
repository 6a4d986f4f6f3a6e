package cres

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"cres/internal/core"
	"cres/internal/m2m"
	"cres/internal/monitor"
	"cres/internal/sim"
)

// This file wires the cooperative-response layer of a networked fleet:
// devices gossip signed alert digests over the authenticated M2M
// fabric, ingest neighbour digests as evidence (the SSM raises its
// posture pre-emptively), and cut the link towards a neighbour whose
// digest says it is compromised — closing the door before a worm's
// dwell expires. Experiment E13 measures exactly this race.

// GossipKind is the M2M message kind carrying alert digests. Digests
// ride ordinary endpoint messages, so they inherit the fabric's
// signing, replay protection and monitoring for free — that is what
// makes them "signed alert digests".
const GossipKind = "cres.gossip"

// encodeDigest serialises a digest for the wire.
func encodeDigest(d core.PeerDigest) []byte {
	return []byte(fmt.Sprintf("%s|%s|%d|%d", d.Origin, d.Signature, uint8(d.Severity), int64(d.At)))
}

// decodeDigest parses a wire digest.
func decodeDigest(b []byte) (core.PeerDigest, error) {
	parts := strings.Split(string(b), "|")
	if len(parts) != 4 {
		return core.PeerDigest{}, fmt.Errorf("cres: malformed gossip digest %q", b)
	}
	sev, err := strconv.ParseUint(parts[2], 10, 8)
	if err != nil {
		return core.PeerDigest{}, fmt.Errorf("cres: gossip digest severity: %w", err)
	}
	at, err := strconv.ParseInt(parts[3], 10, 64)
	if err != nil {
		return core.PeerDigest{}, fmt.Errorf("cres: gossip digest time: %w", err)
	}
	return core.PeerDigest{
		Origin:    parts[0],
		Signature: parts[1],
		Severity:  monitor.Severity(sev),
		At:        sim.VirtualTime(at),
	}, nil
}

// EnableCooperation joins the device to its fleet's cooperative
// defence, gossiping with the named M2M peers (its topology
// neighbours). Three behaviours switch on:
//
//   - every first detection at Warning or above is published as an
//     alert digest to every gossip peer;
//   - incoming digests are ingested as neighbour evidence (posture
//     raise, see core.SSM.IngestPeerDigest) and forwarded once to the
//     other peers, so evidence floods the fleet epidemically even off
//     the origin's immediate neighbourhood;
//   - a Critical digest from a *direct* gossip peer quarantines the
//     link towards it through the response manager — the pre-emptive
//     cut that stops a worm mid-hop.
//
// Requires the CRES architecture and an attached network endpoint.
// Peers must be trusted (Endpoint.Trust) separately, as usual.
func (d *Device) EnableCooperation(peers ...string) error {
	if d.SSM == nil {
		return fmt.Errorf("cres: %s: cooperation needs the CRES architecture", d.Name)
	}
	if d.Endpoint == nil || d.Network == nil {
		return fmt.Errorf("cres: %s: cooperation needs an attached M2M network", d.Name)
	}
	d.gossipPeers = append([]string(nil), peers...)
	sort.Strings(d.gossipPeers)
	direct := make(map[string]bool, len(peers))
	for _, p := range peers {
		direct[p] = true
	}
	// seen tracks the highest severity handled per (origin, signature),
	// so repeats are dropped but ESCALATED digests (same signature, now
	// Critical on the origin) still flow — they are what arms the
	// quarantine for signatures that start at Warning.
	seen := make(map[string]monitor.Severity)

	send := func(to string, d2 core.PeerDigest, from string) {
		if to == from || to == d2.Origin {
			return
		}
		payload := encodeDigest(d2)
		d.Endpoint.Send(to, GossipKind, payload) //nolint:errcheck // best effort, like any gossip
		// Redundant re-sends (SetGossipRedundancy) blunt fabric drops.
		// Each copy is a fresh signed message with its own nonce; the
		// receiver's severity-keyed seen map and the SSM's ingest dedup
		// absorb whichever copies arrive beyond the first, so extra
		// copies can never double-count evidence.
		for k := 1; k <= d.gossipExtra; k++ {
			k := k
			d.Engine.MustSchedule(d.gossipBackoff(k), func() {
				d.Endpoint.Send(to, GossipKind, payload) //nolint:errcheck // best effort, like any gossip
			})
		}
	}

	// Egress: own detections (first per signature, plus escalations —
	// the SSM's publish gate decides).
	d.SSM.SetDigestPublisher(func(dig core.PeerDigest) {
		seen[dig.Origin+"|"+dig.Signature] = dig.Severity
		for _, p := range d.gossipPeers {
			send(p, dig, "")
		}
	})

	// Cooperative cut: known-compromised direct neighbour.
	d.SSM.SetPeerThreatHandler(func(dig core.PeerDigest) {
		if !direct[dig.Origin] {
			return
		}
		d.Responder.QuarantineLink(d.Network, d.Name, dig.Origin, //nolint:errcheck // recorded via action log
			fmt.Sprintf("neighbour evidence: %s", dig))
	})

	// Ingress: ingest once per severity level, forward once.
	d.Endpoint.Handle(GossipKind, func(msg m2m.Message) {
		dig, err := decodeDigest(msg.Payload)
		if err != nil || dig.Origin == d.Name {
			return
		}
		key := dig.Origin + "|" + dig.Signature
		if prev, dup := seen[key]; dup && dig.Severity <= prev {
			return
		}
		seen[key] = dig.Severity
		d.SSM.IngestPeerDigest(dig)
		for _, p := range d.gossipPeers {
			send(p, dig, msg.From)
		}
	})

	// Recovery hook: let ForgetPeer clear this layer's suppression
	// state alongside the SSM's, so a re-compromised neighbour's fresh
	// digests flow and quarantine re-arms.
	d.coopForget = func(origin string) {
		prefix := origin + "|"
		for key := range seen {
			if strings.HasPrefix(key, prefix) {
				delete(seen, key)
			}
		}
	}
	return nil
}

// SetGossipRedundancy makes every outgoing digest copy (own detections
// and forwards alike) be re-sent extra more times, the k-th re-send
// delayed by backoff(k). On a lossy fabric this turns one-shot gossip
// into bounded retry; receivers dedup, so redundancy never changes
// evidence counts. backoff must be deterministic for reproducible
// runs — e.g. faultmodel.Plan.Backoff — and defaults to a fixed 1ms
// when nil. extra <= 0 switches redundancy off.
func (d *Device) SetGossipRedundancy(extra int, backoff func(attempt int) time.Duration) {
	if backoff == nil {
		backoff = func(int) time.Duration { return time.Millisecond }
	}
	d.gossipExtra = extra
	d.gossipBackoff = backoff
}

// ForgetPeer erases everything this device holds against a neighbour —
// the SSM's peer threat score and suppression entries, and the
// cooperation layer's forwarding dedup — after the fleet has verified
// the neighbour clean. A later re-compromise then scores, gossips and
// quarantines from scratch. Safe to call whether or not cooperation is
// enabled.
func (d *Device) ForgetPeer(origin string) {
	if d.SSM != nil {
		d.SSM.ForgetPeer(origin)
	}
	if d.coopForget != nil {
		d.coopForget(origin)
	}
}
