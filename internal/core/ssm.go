package core

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"cres/internal/cryptoutil"
	"cres/internal/evidence"
	"cres/internal/monitor"
	"cres/internal/sim"
)

// HealthState is the SSM's assessment of the device.
type HealthState uint8

// Health states.
const (
	// StateHealthy means no unresolved suspicion.
	StateHealthy HealthState = iota + 1
	// StateSuspicious means warnings accumulated beyond the suspicion
	// threshold but below confirmation.
	StateSuspicious
	// StateCompromised means a critical detection confirmed malicious
	// activity.
	StateCompromised
	// StateDegraded means countermeasures are active and non-critical
	// functionality has been shed.
	StateDegraded
	// StateRecovering means a recovery strategy is executing.
	StateRecovering
)

// String implements fmt.Stringer.
func (s HealthState) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateSuspicious:
		return "suspicious"
	case StateCompromised:
		return "compromised"
	case StateDegraded:
		return "degraded"
	case StateRecovering:
		return "recovering"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Config parameterises the SSM.
type Config struct {
	// ObservationPeriod is how often monitor snapshots are sampled into
	// the evidence log (default 1ms of virtual time).
	ObservationPeriod time.Duration
	// AnchorPeriod is how often the evidence head is signed (default
	// 10ms).
	AnchorPeriod time.Duration
	// CompromiseThreshold is the score at which the device is considered
	// compromised even without a single critical alert (default 5.0).
	CompromiseThreshold float64
	// ScoreDecay multiplies every resource score each observation tick,
	// so stale suspicion fades (default 0.9).
	ScoreDecay float64
	// DeviceName identifies this device in gossiped alert digests
	// (default "device"). Only used when a digest publisher is set.
	DeviceName string
}

// A device turns suspicious when one resource's accumulated threat
// score reaches suspicionThreshold, or, by neighbour evidence alone
// (see IngestPeerDigest), when one peer's reaches
// peerSuspicionThreshold.
const (
	suspicionThreshold     = 1.0
	peerSuspicionThreshold = 1.0
)

func (c *Config) fillDefaults() {
	if c.ObservationPeriod <= 0 {
		c.ObservationPeriod = time.Millisecond
	}
	if c.AnchorPeriod <= 0 {
		c.AnchorPeriod = 10 * time.Millisecond
	}
	if c.CompromiseThreshold == 0 {
		c.CompromiseThreshold = 5.0
	}
	if c.ScoreDecay == 0 {
		c.ScoreDecay = 0.9
	}
	if c.DeviceName == "" {
		c.DeviceName = "device"
	}
}

// Play is one playbook entry: when an alert matches the signature prefix
// at or above the severity, the response function runs. Each play fires
// at most once per resource until ResetPlays is called for it, so a
// sustained attack does not re-execute the same countermeasure.
type Play struct {
	// Name identifies the play in evidence records.
	Name string
	// SignaturePrefix matches alert signatures, e.g. "cfi." or
	// "bus.world-mismatch".
	SignaturePrefix string
	// MinSeverity is the minimum severity that triggers the play.
	MinSeverity monitor.Severity
	// Respond executes the countermeasure. It returns a description for
	// the evidence log, or an error if the response could not be
	// applied.
	Respond func(alert monitor.Alert) (string, error)
}

// Detection records the first time the SSM saw a given signature.
type Detection struct {
	At        sim.VirtualTime
	Signature string
	Resource  string
	Severity  monitor.Severity
}

// ErrPlayInvalid reports a malformed play registration.
var ErrPlayInvalid = errors.New("core: invalid play")

// SSM is the System Security Manager. Create with New.
type SSM struct {
	engine *sim.Engine
	cfg    Config

	log    *evidence.Log
	signer *cryptoutil.KeyPair

	monitors []monitor.Monitor
	plays    []Play
	fired    map[string]bool // play name + resource

	state      HealthState
	scores     map[string]float64
	detections map[string]Detection // signature -> first detection

	anchors []evidence.Anchor

	obsTicker    *sim.Ticker
	anchorTicker *sim.Ticker

	// Scratch buffers reused by observe so each observation tick formats
	// gauges without re-allocating the key slice or byte buffer; only the
	// final record string is allocated.
	obsKeys    []string
	obsScratch []byte

	onStateChange func(from, to HealthState)

	// Cooperative-response state (gossip.go). deviceName is cached from
	// the config; the maps allocate lazily so isolated devices pay
	// nothing.
	deviceName    string
	publishDigest func(PeerDigest)
	onPeerThreat  func(PeerDigest)
	sigPublished  map[string]monitor.Severity
	peerSeen      map[string]monitor.Severity
	peerScores    map[string]float64
	peerIngested  uint64

	alertsHandled  uint64
	responsesFired uint64
}

var _ monitor.Sink = (*SSM)(nil)

// New creates and starts an SSM. signer is the SSM's private anchor key,
// held in its isolated memory; onStateChange (may be nil) observes health
// transitions.
func New(engine *sim.Engine, cfg Config, signer *cryptoutil.KeyPair, onStateChange func(from, to HealthState)) (*SSM, error) {
	if signer == nil {
		return nil, errors.New("core: ssm needs an anchor signing key")
	}
	cfg.fillDefaults()
	s := &SSM{
		engine:        engine,
		cfg:           cfg,
		log:           &evidence.Log{},
		signer:        signer,
		fired:         make(map[string]bool),
		state:         StateHealthy,
		scores:        make(map[string]float64),
		detections:    make(map[string]Detection),
		onStateChange: onStateChange,
		deviceName:    cfg.DeviceName,
	}
	var err error
	s.obsTicker, err = sim.NewTicker(engine, cfg.ObservationPeriod, s.observe)
	if err != nil {
		return nil, fmt.Errorf("core: observation ticker: %w", err)
	}
	s.anchorTicker, err = sim.NewTicker(engine, cfg.AnchorPeriod, s.anchor)
	if err != nil {
		return nil, fmt.Errorf("core: anchor ticker: %w", err)
	}
	s.log.Append(engine.Now(), "ssm", evidence.KindLifecycle, "system security manager started")
	return s, nil
}

// Stop halts periodic activity.
func (s *SSM) Stop() {
	s.obsTicker.Stop()
	s.anchorTicker.Stop()
}

// Log exposes the evidence log (read access for forensics and tests).
func (s *SSM) Log() *evidence.Log { return s.log }

// AnchorKey returns the public half of the anchor signing key.
func (s *SSM) AnchorKey() cryptoutil.PublicKey { return s.signer.Public() }

// Anchors returns all signed anchors so far.
func (s *SSM) Anchors() []evidence.Anchor {
	out := make([]evidence.Anchor, len(s.anchors))
	copy(out, s.anchors)
	return out
}

// State returns the current health state.
func (s *SSM) State() HealthState { return s.state }

// AlertsHandled returns the number of alerts processed.
func (s *SSM) AlertsHandled() uint64 { return s.alertsHandled }

// ResponsesFired returns the number of playbook responses executed.
func (s *SSM) ResponsesFired() uint64 { return s.responsesFired }

// AttachMonitor registers a monitor for periodic observation sampling.
func (s *SSM) AttachMonitor(m monitor.Monitor) { s.monitors = append(s.monitors, m) }

// AddPlay registers a playbook entry.
func (s *SSM) AddPlay(p Play) error {
	if p.Name == "" || p.SignaturePrefix == "" || p.Respond == nil {
		return fmt.Errorf("%w: %+v", ErrPlayInvalid, p)
	}
	if p.MinSeverity == 0 {
		p.MinSeverity = monitor.Warning
	}
	s.plays = append(s.plays, p)
	return nil
}

// ResetPlay re-arms a play for a resource (after recovery), so it can
// fire again on re-compromise.
func (s *SSM) ResetPlay(playName, resource string) {
	delete(s.fired, playName+"|"+resource)
}

// RecordLifecycle appends a lifecycle record (boot, update, reset) to
// the evidence log.
func (s *SSM) RecordLifecycle(detail string) {
	s.log.Append(s.engine.Now(), "ssm", evidence.KindLifecycle, detail)
}

// RecordRecovery appends a recovery record to the evidence log and moves
// the health state to recovering.
func (s *SSM) RecordRecovery(detail string) {
	s.log.Append(s.engine.Now(), "ssm", evidence.KindRecovery, detail)
	s.setState(StateRecovering)
}

// MarkRecovered declares recovery complete: scores reset, plays re-armed,
// state healthy. The publish gate resets with them — if the device is
// re-infected after recovery, the fresh detection must gossip again
// rather than be absorbed as a repeat of the pre-recovery outbreak.
func (s *SSM) MarkRecovered(detail string) {
	s.scores = make(map[string]float64)
	s.fired = make(map[string]bool)
	s.sigPublished = nil
	s.log.Append(s.engine.Now(), "ssm", evidence.KindRecovery, "recovered: "+detail)
	s.setState(StateHealthy)
}

// HandleAlert implements monitor.Sink: evidence first, then correlation,
// then response selection.
func (s *SSM) HandleAlert(a monitor.Alert) {
	s.alertsHandled++

	// 1. Evidence: the alert is recorded before anything else, so even
	// a response failure leaves a trail.
	s.log.Append(a.At, a.Monitor, evidence.KindAlert,
		fmt.Sprintf("[%s] %s %s: %s", a.Severity, a.Signature, a.Resource, a.Detail))

	// 2. First-detection bookkeeping (per signature). Detections — and
	// later escalations of the same signature — are what the device
	// shares with its gossip peers, if any; the publish gate itself
	// lives in maybePublishDigest.
	if _, seen := s.detections[a.Signature]; !seen {
		s.detections[a.Signature] = Detection{At: a.At, Signature: a.Signature, Resource: a.Resource, Severity: a.Severity}
	}
	s.maybePublishDigest(a.Signature, a.At, a.Severity)

	// 3. Threat scoring and health state.
	s.scores[a.Resource] += severityWeight(a.Severity)
	s.updateState(a)

	// 4. Response selection: first matching play per alert, once per
	// (play, resource).
	for i := range s.plays {
		p := &s.plays[i]
		if a.Severity < p.MinSeverity || !strings.HasPrefix(a.Signature, p.SignaturePrefix) {
			continue
		}
		key := p.Name + "|" + a.Resource
		if s.fired[key] {
			continue
		}
		s.fired[key] = true
		desc, err := p.Respond(a)
		if err != nil {
			s.log.Append(s.engine.Now(), "ssm", evidence.KindResponse,
				fmt.Sprintf("play %s FAILED for %s: %v", p.Name, a.Resource, err))
			continue
		}
		s.responsesFired++
		s.log.Append(s.engine.Now(), "ssm", evidence.KindResponse,
			fmt.Sprintf("play %s: %s", p.Name, desc))
		if s.state == StateCompromised {
			s.setState(StateDegraded)
		}
		break
	}
}

func severityWeight(sev monitor.Severity) float64 {
	switch sev {
	case monitor.Info:
		return 0.2
	case monitor.Warning:
		return 1.0
	case monitor.Critical:
		return 5.0
	default:
		return 0
	}
}

func (s *SSM) updateState(a monitor.Alert) {
	switch {
	case a.Severity >= monitor.Critical:
		if s.state == StateHealthy || s.state == StateSuspicious {
			s.setState(StateCompromised)
		}
	case s.scores[a.Resource] >= s.cfg.CompromiseThreshold:
		if s.state == StateHealthy || s.state == StateSuspicious {
			s.setState(StateCompromised)
		}
	case s.scores[a.Resource] >= suspicionThreshold:
		if s.state == StateHealthy {
			s.setState(StateSuspicious)
		}
	}
}

func (s *SSM) setState(to HealthState) {
	if s.state == to {
		return
	}
	from := s.state
	s.state = to
	s.log.Append(s.engine.Now(), "ssm", evidence.KindLifecycle,
		fmt.Sprintf("health state %s -> %s", from, to))
	if s.onStateChange != nil {
		s.onStateChange(from, to)
	}
}

// observe samples every attached monitor into the evidence stream. This
// is the "continuity of data stream by continuous monitoring" of
// Section V.
func (s *SSM) observe(at sim.VirtualTime) {
	for _, m := range s.monitors {
		snap := m.Snapshot()
		s.obsKeys = s.obsKeys[:0]
		for k := range snap {
			s.obsKeys = append(s.obsKeys, k)
		}
		sort.Strings(s.obsKeys)
		s.obsScratch = s.obsScratch[:0]
		for i, k := range s.obsKeys {
			if i > 0 {
				s.obsScratch = append(s.obsScratch, ' ')
			}
			s.obsScratch = append(s.obsScratch, k...)
			s.obsScratch = append(s.obsScratch, '=')
			s.obsScratch = strconv.AppendFloat(s.obsScratch, snap[k], 'f', 2, 64)
		}
		s.log.Append(at, m.Name(), evidence.KindObservation, string(s.obsScratch))
	}
	// Suspicion decay — local resource scores and gossiped peer threat
	// scores alike, so a pre-emptively raised posture fades once the
	// neighbourhood goes quiet.
	for r := range s.scores {
		s.scores[r] *= s.cfg.ScoreDecay
		if s.scores[r] < 0.01 {
			delete(s.scores, r)
		}
	}
	for p := range s.peerScores {
		s.peerScores[p] *= s.cfg.ScoreDecay
		if s.peerScores[p] < 0.01 {
			delete(s.peerScores, p)
		}
	}
	// Suspicious -> healthy when all scores have decayed away.
	if s.state == StateSuspicious && len(s.scores) == 0 && len(s.peerScores) == 0 {
		s.setState(StateHealthy)
	}
}

// anchor signs the evidence head.
func (s *SSM) anchor(at sim.VirtualTime) {
	s.anchors = append(s.anchors, s.log.SignHead(s.signer))
}

// Score returns the current threat score for a resource.
func (s *SSM) Score(resource string) float64 { return s.scores[resource] }

// FirstDetection returns when a signature was first seen.
func (s *SSM) FirstDetection(signature string) (Detection, bool) {
	d, ok := s.detections[signature]
	return d, ok
}

// Detections returns all first-detections sorted by time.
func (s *SSM) Detections() []Detection {
	out := make([]Detection, 0, len(s.detections))
	for _, d := range s.detections {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Signature < out[j].Signature
	})
	return out
}
