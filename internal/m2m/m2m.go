package m2m

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"cres/internal/cryptoutil"
	"cres/internal/monitor"
	"cres/internal/sim"
)

// Message is one authenticated datagram.
type Message struct {
	// From and To are endpoint names.
	From, To string
	// Kind is the application message type, e.g. "attest.challenge".
	Kind string
	// Nonce is the per-sender strictly increasing freshness counter.
	Nonce uint64
	// Payload is the application content.
	Payload []byte
	// Signature is the sender's signature over the message body.
	Signature []byte
}

// digest returns the deterministic signed digest of the message body.
func (m *Message) digest() cryptoutil.Digest {
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], m.Nonce)
	return cryptoutil.SumAll([]byte(m.From), []byte(m.To), []byte(m.Kind), n[:], m.Payload)
}

// body returns the deterministic signed encoding.
func (m *Message) body() []byte {
	d := m.digest()
	return d[:]
}

// Errors returned by the package.
var (
	ErrUnknownNode  = errors.New("m2m: unknown node")
	ErrDuplicateKey = errors.New("m2m: node already exists")
)

// Config parameterises a Network.
type Config struct {
	// Latency is the one-way delivery delay (default 500µs).
	Latency time.Duration
	// Loss is the probability in [0,1) that a message is lost in
	// transit.
	Loss float64
}

// Stats counts network-level events.
type Stats struct {
	Sent      uint64
	Delivered uint64
	Lost      uint64
	Tampered  uint64
	AuthFail  uint64
	Replayed  uint64
	// Quarantined counts messages dropped by a link quarantine gate
	// (see Network.QuarantineLink).
	Quarantined uint64
	// FaultDropped counts deliveries the fault injector erased;
	// FaultCopies the extra copies it injected.
	FaultDropped uint64
	FaultCopies  uint64
	// Offline counts deliveries dropped because an endpoint was down
	// (see Network.SetNodeDown).
	Offline uint64
	// Duplicated counts byte-identical repeats an endpoint silently
	// absorbed — link-level noise, not an attack (see Endpoint.deliver).
	Duplicated uint64
}

// KindStats counts one message kind's fabric-level outcomes: sends,
// verified deliveries, and drops that never reached the endpoint (loss,
// fault erasure, quarantine gates, offline nodes, in-flight MITM drops).
type KindStats struct {
	Sent, Delivered, Dropped uint64
}

// Fate is a fault injector's decision about one delivery: one entry per
// copy to deliver, each the extra delay beyond the fabric latency. An
// empty fate drops the delivery; {0} is the identity.
type Fate struct {
	Deliveries []time.Duration
}

// FaultInjector decides the fate of each delivery crossing a link. The
// faultmodel package provides the seeded implementation.
type FaultInjector interface {
	Fate(from, to string) Fate
}

// Network is the simulated M2M fabric. Create with NewNetwork.
type Network struct {
	engine *sim.Engine
	cfg    Config
	nodes  map[string]*Endpoint
	// mitm, when non-nil, sees every message in flight and returns the
	// (possibly modified) message to deliver, or nil to drop it. Only
	// the attack injector installs it.
	mitm func(Message) *Message
	// quarantined marks links cut by the cooperative response layer;
	// keyed by linkKey (see topology.go). Lazily allocated.
	quarantined map[string]bool
	// faults, when non-nil, decides each delivery's fate (drop, delay,
	// duplicate). Nil means the fabric is perfect, as before.
	faults FaultInjector
	// down marks endpoints that crashed and have not rebooted; messages
	// to or from a down node are dropped at delivery time. Lazily
	// allocated.
	down  map[string]bool
	kinds map[string]*KindStats
	stats Stats
}

// NewNetwork creates a network.
func NewNetwork(engine *sim.Engine, cfg Config) *Network {
	if cfg.Latency <= 0 {
		cfg.Latency = 500 * time.Microsecond
	}
	return &Network{engine: engine, cfg: cfg, nodes: make(map[string]*Endpoint)}
}

// Stats returns a copy of the counters.
func (n *Network) Stats() Stats { return n.stats }

// KindStats returns the fabric-level counters of one message kind.
func (n *Network) KindStats(kind string) KindStats {
	if ks := n.kinds[kind]; ks != nil {
		return *ks
	}
	return KindStats{}
}

// kind returns the mutable counter record of a message kind.
func (n *Network) kind(kind string) *KindStats {
	ks := n.kinds[kind]
	if ks == nil {
		if n.kinds == nil {
			n.kinds = make(map[string]*KindStats)
		}
		ks = &KindStats{}
		n.kinds[kind] = ks
	}
	return ks
}

// SetMITM installs (or clears) the man-in-the-middle interposer.
func (n *Network) SetMITM(fn func(Message) *Message) { n.mitm = fn }

// SetFaultInjector installs (or clears) the fabric fault layer. An
// injector whose fates are all the identity leaves delivery
// byte-identical to a nil injector.
func (n *Network) SetFaultInjector(fi FaultInjector) { n.faults = fi }

// SetNodeDown marks an endpoint crashed (down=true) or rebooted
// (down=false). Deliveries touching a down node are dropped at delivery
// time — a message in flight when its peer dies is lost with it.
func (n *Network) SetNodeDown(name string, down bool) error {
	if _, ok := n.nodes[name]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, name)
	}
	if n.down == nil {
		n.down = make(map[string]bool)
	}
	n.down[name] = down
	return nil
}

// NodeDown reports whether an endpoint is currently crashed.
func (n *Network) NodeDown(name string) bool { return n.down[name] }

// AddNode registers an endpoint with its signing identity.
func (n *Network) AddNode(name string, key *cryptoutil.KeyPair) (*Endpoint, error) {
	if _, dup := n.nodes[name]; dup {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateKey, name)
	}
	ep := &Endpoint{
		name:     name,
		net:      n,
		key:      key,
		peers:    make(map[string]cryptoutil.PublicKey),
		seen:     make(map[string]map[uint64]cryptoutil.Digest),
		handlers: make(map[string]Handler),
	}
	n.nodes[name] = ep
	return ep, nil
}

// Handler processes a verified inbound message.
type Handler func(msg Message)

// Endpoint is one network participant.
type Endpoint struct {
	name  string
	net   *Network
	key   *cryptoutil.KeyPair
	peers map[string]cryptoutil.PublicKey
	// seen maps sender -> nonce -> accepted body digest. Accepting any
	// unseen nonce (not just increasing ones) tolerates fabric
	// reordering; remembering the digest lets a byte-identical repeat —
	// link-level duplication — be absorbed silently, while a nonce
	// reused for DIFFERENT content is still flagged as a replay attack.
	// Memory grows with accepted messages, which a simulation run
	// bounds.
	seen      map[string]map[uint64]cryptoutil.Digest
	handlers  map[string]Handler
	netmon    *monitor.NetMonitor
	sendNonce uint64

	received uint64
	rejected uint64
}

// Name returns the endpoint's network name.
func (e *Endpoint) Name() string { return e.name }

// PublicKey returns the endpoint's identity key.
func (e *Endpoint) PublicKey() cryptoutil.PublicKey { return e.key.Public() }

// Trust registers a peer's public key (out-of-band provisioning).
func (e *Endpoint) Trust(peer string, key cryptoutil.PublicKey) {
	e.peers[peer] = key
}

// AttachMonitor connects a network monitor to the endpoint's
// verification path.
func (e *Endpoint) AttachMonitor(m *monitor.NetMonitor) { e.netmon = m }

// Handle registers the handler for a message kind. An empty kind sets
// the default handler.
func (e *Endpoint) Handle(kind string, h Handler) { e.handlers[kind] = h }

// Received returns the count of accepted messages.
func (e *Endpoint) Received() uint64 { return e.received }

// Rejected returns the count of rejected (auth/replay) messages.
func (e *Endpoint) Rejected() uint64 { return e.rejected }

// Send signs and transmits a message. Delivery is asynchronous after the
// network latency; lost messages vanish silently (as on a real link).
func (e *Endpoint) Send(to, kind string, payload []byte) error {
	if _, ok := e.net.nodes[to]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, to)
	}
	e.sendNonce++
	msg := Message{
		From:    e.name,
		To:      to,
		Kind:    kind,
		Nonce:   e.sendNonce,
		Payload: append([]byte(nil), payload...),
	}
	msg.Signature = e.key.Sign(msg.body())
	e.net.transmit(msg)
	return nil
}

// transmit schedules delivery. The quarantine gate and the node-down
// gate are checked at delivery time, not send time: a message already
// in flight when the link is cut — or when its peer crashes — is
// dropped too, like a frame on a line that just went down.
func (n *Network) transmit(msg Message) {
	n.stats.Sent++
	ks := n.kind(msg.Kind)
	ks.Sent++
	if n.cfg.Loss > 0 && n.engine.RNG().Float64() < n.cfg.Loss {
		n.stats.Lost++
		ks.Dropped++
		return
	}
	copies := onTimeDelivery
	if n.faults != nil {
		fate := n.faults.Fate(msg.From, msg.To)
		copies = fate.Deliveries
		if len(copies) == 0 {
			n.stats.FaultDropped++
			ks.Dropped++
			return
		}
		if extra := len(copies) - 1; extra > 0 {
			n.stats.FaultCopies += uint64(extra)
		}
	}
	for _, extra := range copies {
		n.engine.MustSchedule(n.cfg.Latency+extra, func() {
			if !n.LinkUp(msg.From, msg.To) {
				n.stats.Quarantined++
				ks.Dropped++
				return
			}
			if n.down[msg.From] || n.down[msg.To] {
				n.stats.Offline++
				ks.Dropped++
				return
			}
			m := msg
			if n.mitm != nil {
				out := n.mitm(m)
				if out == nil {
					n.stats.Lost++
					ks.Dropped++
					return
				}
				if !equalMsg(*out, m) {
					n.stats.Tampered++
				}
				m = *out
			}
			dst, ok := n.nodes[m.To]
			if !ok {
				n.stats.Lost++
				ks.Dropped++
				return
			}
			dst.deliver(m)
		})
	}
}

// onTimeDelivery is the unfaulted delivery schedule: one copy, on time.
var onTimeDelivery = []time.Duration{0}

func equalMsg(a, b Message) bool {
	if a.From != b.From || a.To != b.To || a.Kind != b.Kind || a.Nonce != b.Nonce {
		return false
	}
	if len(a.Payload) != len(b.Payload) || len(a.Signature) != len(b.Signature) {
		return false
	}
	for i := range a.Payload {
		if a.Payload[i] != b.Payload[i] {
			return false
		}
	}
	for i := range a.Signature {
		if a.Signature[i] != b.Signature[i] {
			return false
		}
	}
	return true
}

// deliver runs the endpoint's verification path and dispatches the
// handler.
func (e *Endpoint) deliver(msg Message) {
	key, known := e.peers[msg.From]
	if !known {
		e.rejected++
		e.net.stats.AuthFail++
		if e.netmon != nil {
			e.netmon.ObserveAuthFailure(msg.From, "unknown sender")
		}
		return
	}
	if !key.Verify(msg.body(), msg.Signature) {
		e.rejected++
		e.net.stats.AuthFail++
		if e.netmon != nil {
			e.netmon.ObserveAuthFailure(msg.From, fmt.Sprintf("bad signature on %s", msg.Kind))
		}
		return
	}
	digest := msg.digest()
	if prior, dup := e.seen[msg.From][msg.Nonce]; dup {
		if prior == digest {
			// A byte-identical repeat of an accepted message: link-level
			// duplication, not an attack. Absorb it silently so a lossy
			// fabric's redundancy never raises the security posture.
			e.net.stats.Duplicated++
			return
		}
		e.rejected++
		e.net.stats.Replayed++
		if e.netmon != nil {
			e.netmon.ObserveReplay(msg.From, fmt.Sprintf("nonce %d reused with different content on %s", msg.Nonce, msg.Kind))
		}
		return
	}
	if e.seen[msg.From] == nil {
		e.seen[msg.From] = make(map[uint64]cryptoutil.Digest)
	}
	e.seen[msg.From][msg.Nonce] = digest
	e.received++
	e.net.stats.Delivered++
	e.net.kind(msg.Kind).Delivered++
	if e.netmon != nil {
		e.netmon.ObserveMessage(msg.From)
	}
	h, ok := e.handlers[msg.Kind]
	if !ok {
		h = e.handlers[""]
	}
	if h != nil {
		h(msg)
	}
}
