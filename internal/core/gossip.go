package core

import (
	"fmt"

	"cres/internal/evidence"
	"cres/internal/monitor"
	"cres/internal/sim"
)

// This file is the SSM's cooperative-response surface: the paper's
// resilience story is about FLEETS of interconnected devices, so the
// security manager can share what it sees. A device that confirms an
// intrusion publishes a compact alert digest; neighbours ingest
// digests as evidence, correlate them into a peer threat score, and
// pre-emptively raise their health posture — suspicious before their
// own monitors have seen anything — giving the response layer time to
// quarantine the link towards the infected neighbour before a worm's
// dwell expires. Transport is not this package's business: the root
// package carries digests over authenticated M2M messages.

// PeerDigest is the gossiped summary of one first-detection on another
// device: who saw it, what signature, how bad, when. It is deliberately
// tiny — digests cross the M2M fabric on every confirmed intrusion.
type PeerDigest struct {
	// Origin is the detecting device's network name.
	Origin string
	// Signature is the alert signature class that fired.
	Signature string
	// Severity is the alert's severity at detection.
	Severity monitor.Severity
	// At is the origin's detection time.
	At sim.VirtualTime
}

// String renders the digest for evidence records.
func (d PeerDigest) String() string {
	return fmt.Sprintf("[%s] %s from %s at %v", d.Severity, d.Signature, d.Origin, d.At)
}

// SetDigestPublisher installs the gossip egress: publish is called once
// per newly detected signature at Warning or above, with the digest the
// device should share. Passing nil disables publishing. The SSM calls
// it synchronously from alert handling, so the publisher must not block
// or re-enter the SSM.
func (s *SSM) SetDigestPublisher(publish func(PeerDigest)) { s.publishDigest = publish }

// SetPeerThreatHandler installs the cooperative-response hook: onThreat
// fires once per (origin, signature) pair whose ingested digest is
// Critical — the moment a neighbour is known-compromised and the link
// towards it should be considered hostile.
func (s *SSM) SetPeerThreatHandler(onThreat func(PeerDigest)) { s.onPeerThreat = onThreat }

// PeerDigestsIngested returns how many neighbour digests were ingested.
func (s *SSM) PeerDigestsIngested() uint64 { return s.peerIngested }

// PeerScore returns the accumulated threat score of a peer device.
func (s *SSM) PeerScore(origin string) float64 { return s.peerScores[origin] }

// IngestPeerDigest feeds one neighbour digest into the SSM: evidence
// first (KindPeer), then peer threat scoring, then posture. A healthy
// device with enough neighbour evidence turns suspicious without any
// local alert — the pre-emptive posture raise cooperative defence
// buys — and a digest at Critical fires the peer-threat hook exactly
// once per (origin, signature).
//
// The caller authenticates the digest; by the time it reaches the SSM
// it is trusted neighbour evidence. Replay suppression is per (origin,
// signature, severity): a repeat at the same or lower severity neither
// re-scores nor re-fires the hook, but an ESCALATED digest — the same
// signature now at a higher severity, e.g. auth failures crossing
// their escalation threshold on the origin — is fresh evidence: it
// tops the score up to the new severity's weight and can fire the
// Critical hook a first detection at Warning could not.
func (s *SSM) IngestPeerDigest(d PeerDigest) {
	key := d.Origin + "|" + d.Signature
	prev, dup := s.peerSeen[key]
	if dup && d.Severity <= prev {
		return
	}
	if s.peerSeen == nil {
		s.peerSeen = make(map[string]monitor.Severity)
	}
	if s.peerScores == nil {
		s.peerScores = make(map[string]float64)
	}
	s.peerSeen[key] = d.Severity
	s.peerIngested++

	s.log.Append(s.engine.Now(), "ssm-gossip", evidence.KindPeer, d.String())
	// Score to the digest's severity: a fresh digest adds its full
	// weight, an escalated one only the increment over what this
	// (origin, signature) already contributed.
	s.peerScores[d.Origin] += severityWeight(d.Severity) - severityWeight(prev)

	// Pre-emptive posture: enough neighbour evidence makes a healthy
	// device suspicious before its own monitors fire. Peer evidence
	// alone never declares THIS device compromised — that stays a
	// local-monitor decision.
	if s.state == StateHealthy && s.peerScores[d.Origin] >= peerSuspicionThreshold {
		s.setState(StateSuspicious)
	}

	if d.Severity >= monitor.Critical && prev < monitor.Critical && s.onPeerThreat != nil {
		s.onPeerThreat(d)
	}
}

// ForgetPeer erases a neighbour's accumulated threat state: its score
// and every (origin, signature) suppression entry. Called when the
// fleet verifies the neighbour clean again (re-attestation passed), so
// that a LATER compromise of the same neighbour scores and fires the
// peer-threat hook from scratch instead of being suppressed as a
// replay of the recovered outbreak. This device's own posture is not
// lowered — evidence already acted on stays acted on.
func (s *SSM) ForgetPeer(origin string) {
	delete(s.peerScores, origin)
	prefix := origin + "|"
	for key := range s.peerSeen {
		if len(key) >= len(prefix) && key[:len(prefix)] == prefix {
			delete(s.peerSeen, key)
		}
	}
}

// maybePublishDigest shares a detection with the fleet: once when a
// signature is first seen at Warning or above, and once more if it
// later ESCALATES past its first-seen severity to Critical (e.g. auth
// failures crossing their escalation threshold) — without the upgrade,
// escalation-class signatures could never trigger the Critical-only
// cooperative responses on peers. Called from HandleAlert.
func (s *SSM) maybePublishDigest(sig string, at sim.VirtualTime, sev monitor.Severity) {
	if s.publishDigest == nil || sev < monitor.Warning {
		return
	}
	if prev, ok := s.sigPublished[sig]; ok && (sev <= prev || sev < monitor.Critical) {
		return
	}
	if s.sigPublished == nil {
		s.sigPublished = make(map[string]monitor.Severity)
	}
	s.sigPublished[sig] = sev
	s.publishDigest(PeerDigest{
		Origin:    s.deviceName,
		Signature: sig,
		Severity:  sev,
		At:        at,
	})
}
