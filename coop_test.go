package cres

import (
	"strings"
	"testing"
	"time"

	"cres/internal/attack"
	"cres/internal/m2m"
	"cres/internal/scenario"
	"cres/internal/sim"
)

// coopPair builds two cooperating CRES devices on one engine/network.
func coopPair(t *testing.T) (*sim.Engine, *m2m.Network, *Device, *Device) {
	t.Helper()
	eng := sim.New(3)
	net := m2m.NewNetwork(eng, m2m.Config{})
	mk := func(name string) *Device {
		dev, err := NewDevice(scenario.DeviceSpec{Name: name}, eng, net)
		if err != nil {
			t.Fatal(err)
		}
		return dev
	}
	a, b := mk("node-00"), mk("node-01")
	a.Endpoint.Trust(b.Name, b.Endpoint.PublicKey())
	b.Endpoint.Trust(a.Name, a.Endpoint.PublicKey())
	if err := a.EnableCooperation(b.Name); err != nil {
		t.Fatal(err)
	}
	if err := b.EnableCooperation(a.Name); err != nil {
		t.Fatal(err)
	}
	for _, d := range []*Device{a, b} {
		if _, err := d.Boot(); err != nil {
			t.Fatal(err)
		}
	}
	return eng, net, a, b
}

// TestCooperationQuarantinesCompromisedNeighbour is the cooperative
// response end to end: A is compromised, detects it, gossips; B
// ingests the digest, raises posture and cuts the link — all before
// any worm dwell could expire.
func TestCooperationQuarantinesCompromisedNeighbour(t *testing.T) {
	eng, net, a, b := coopPair(t)
	if err := Launch(a, attack.SecureProbe{}); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(5 * time.Millisecond)

	if b.SSM.PeerDigestsIngested() == 0 {
		t.Fatal("B ingested no digests")
	}
	if net.LinkUp(a.Name, b.Name) {
		t.Fatal("link A-B still up after critical digest")
	}
	if got := b.Responder.QuarantinedLinks(); len(got) != 1 || !strings.Contains(got[0], a.Name) {
		t.Fatalf("B's quarantined links = %v", got)
	}
	// The cut and the peer evidence are both in B's forensic record.
	rep := b.ForensicReport(0, b.Now())
	if rep.PeerAlerts == 0 {
		t.Fatal("no peer evidence in B's breach report")
	}
	found := false
	for _, rec := range rep.Timeline {
		if strings.Contains(rec.Detail, "quarantine-link") || strings.Contains(rec.Detail, a.Name) {
			found = true
		}
	}
	if !found {
		t.Fatal("link cut missing from B's forensic timeline")
	}
	// A, the compromised side, must NOT have cut anything itself.
	if got := a.Responder.QuarantinedLinks(); len(got) != 0 {
		t.Fatalf("compromised A cut links itself: %v", got)
	}
}

// TestGossipForwardsBeyondNeighbours pins the epidemic part: on a
// 3-node line A-B-C, C is not A's neighbour yet still learns of A's
// compromise through B's forward.
func TestGossipForwardsBeyondNeighbours(t *testing.T) {
	eng := sim.New(5)
	net := m2m.NewNetwork(eng, m2m.Config{})
	var devs []*Device
	for _, name := range []string{"node-00", "node-01", "node-02"} {
		dev, err := NewDevice(scenario.DeviceSpec{Name: name}, eng, net)
		if err != nil {
			t.Fatal(err)
		}
		devs = append(devs, dev)
	}
	trust := func(x, y *Device) {
		x.Endpoint.Trust(y.Name, y.Endpoint.PublicKey())
		y.Endpoint.Trust(x.Name, x.Endpoint.PublicKey())
	}
	trust(devs[0], devs[1])
	trust(devs[1], devs[2])
	if err := devs[0].EnableCooperation(devs[1].Name); err != nil {
		t.Fatal(err)
	}
	if err := devs[1].EnableCooperation(devs[0].Name, devs[2].Name); err != nil {
		t.Fatal(err)
	}
	if err := devs[2].EnableCooperation(devs[1].Name); err != nil {
		t.Fatal(err)
	}
	for _, d := range devs {
		if _, err := d.Boot(); err != nil {
			t.Fatal(err)
		}
	}
	if err := Launch(devs[0], attack.SecureProbe{}); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(5 * time.Millisecond)

	if devs[2].SSM.PeerDigestsIngested() == 0 {
		t.Fatal("C never heard of A's compromise")
	}
	// C quarantines nothing: the origin is not its direct peer.
	if got := devs[2].Responder.QuarantinedLinks(); len(got) != 0 {
		t.Fatalf("C cut links towards a non-neighbour: %v", got)
	}
	// B, the direct neighbour, does cut.
	if got := devs[1].Responder.QuarantinedLinks(); len(got) != 1 {
		t.Fatalf("B's quarantined links = %v, want the A link", got)
	}
}

func TestEnableCooperationRequirements(t *testing.T) {
	base, err := NewDevice(scenario.DeviceSpec{Name: "b", Arch: scenario.ArchBaseline, Seed: 1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := base.EnableCooperation("x"); err == nil {
		t.Error("baseline device enabled cooperation")
	}
	lone, err := NewDevice(scenario.DeviceSpec{Name: "l", Seed: 1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := lone.EnableCooperation("x"); err == nil {
		t.Error("network-less device enabled cooperation")
	}
}

// dropFirstN drops the first n deliveries on every link, then passes
// everything — the simplest lossy fabric that defeats one-shot gossip
// but not redundant gossip.
type dropFirstN struct{ n, seen int }

func (d *dropFirstN) Fate(from, to string) m2m.Fate {
	d.seen++
	if d.seen <= d.n {
		return m2m.Fate{}
	}
	return m2m.Fate{Deliveries: []time.Duration{0}}
}

// TestGossipRedundancySurvivesLoss: with the first copy of every
// digest eaten by the fabric, plain gossip goes deaf but redundant
// gossip still raises the neighbour's posture — and the duplicates the
// redundancy creates never inflate the evidence count.
func TestGossipRedundancySurvivesLoss(t *testing.T) {
	eng, net, a, b := coopPair(t)
	a.SetGossipRedundancy(2, nil)
	// Drop the first two deliveries: the original and the first
	// re-send. The second re-send (2ms) gets through.
	net.SetFaultInjector(&dropFirstN{n: 2})
	if err := Launch(a, attack.SecureProbe{}); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(10 * time.Millisecond)
	if b.SSM.PeerDigestsIngested() == 0 {
		t.Fatal("redundant gossip never got through the lossy fabric")
	}
	if net.LinkUp(a.Name, b.Name) {
		t.Fatal("B never quarantined the compromised neighbour")
	}
	// Redundancy means B may receive the same digest several times once
	// the fabric opens; the SSM must have ingested each (origin,
	// signature, severity) at most once.
	if got := b.SSM.PeerDigestsIngested(); got > 8 {
		t.Fatalf("ingested %d digests — duplicates not absorbed", got)
	}
}

// TestForgetPeerRearmsQuarantine drives a full recover-and-reinfect
// cycle at device level: quarantine, restore+forget, re-compromise,
// quarantine again.
func TestForgetPeerRearmsQuarantine(t *testing.T) {
	eng, net, a, b := coopPair(t)
	if err := Launch(a, attack.SecureProbe{}); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(5 * time.Millisecond)
	if net.LinkUp(a.Name, b.Name) {
		t.Fatal("setup: link not cut")
	}
	// Fleet-side recovery: A is repaired and verified, B restores the
	// link and forgets what it held against A.
	if err := a.Recover("app-core", "fleet repair"); err != nil {
		t.Fatal(err)
	}
	if err := b.Responder.RestoreLink(net, b.Name, a.Name, "neighbour re-attested"); err != nil {
		t.Fatal(err)
	}
	b.ForgetPeer(a.Name)
	if b.SSM.PeerScore(a.Name) != 0 {
		t.Fatalf("B still scores A at %v after forget", b.SSM.PeerScore(a.Name))
	}
	if !net.LinkUp(a.Name, b.Name) {
		t.Fatal("link not restored")
	}
	// A is compromised AGAIN: the fresh outbreak must gossip and cut
	// the link a second time.
	if err := Launch(a, attack.SecureProbe{}); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(5 * time.Millisecond)
	if net.LinkUp(a.Name, b.Name) {
		t.Fatal("re-compromise did not re-quarantine the link")
	}
}
