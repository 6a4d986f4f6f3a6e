package m2m

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"cres/internal/cryptoutil"
	"cres/internal/monitor"
	"cres/internal/sim"
)

func key(t *testing.T, b byte) *cryptoutil.KeyPair {
	t.Helper()
	k, err := cryptoutil.KeyPairFromSeed(bytes.Repeat([]byte{b}, 32))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func pair(t *testing.T, cfg Config) (*sim.Engine, *Network, *Endpoint, *Endpoint) {
	t.Helper()
	e := sim.New(5)
	n := NewNetwork(e, cfg)
	a, err := n.AddNode("device-1", key(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.AddNode("verifier", key(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	a.Trust("verifier", b.PublicKey())
	b.Trust("device-1", a.PublicKey())
	return e, n, a, b
}

func TestSendReceive(t *testing.T) {
	e, n, a, b := pair(t, Config{})
	var got []Message
	b.Handle("hello", func(m Message) { got = append(got, m) })
	if err := a.Send("verifier", "hello", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	e.RunFor(2 * time.Millisecond)
	if len(got) != 1 {
		t.Fatalf("received %d messages", len(got))
	}
	if got[0].From != "device-1" || string(got[0].Payload) != "payload" {
		t.Fatalf("msg = %+v", got[0])
	}
	if n.Stats().Delivered != 1 {
		t.Fatalf("stats = %+v", n.Stats())
	}
	if b.Received() != 1 || b.Rejected() != 0 {
		t.Fatal("endpoint counters")
	}
}

func TestDefaultHandler(t *testing.T) {
	e, _, a, b := pair(t, Config{})
	var kinds []string
	b.Handle("", func(m Message) { kinds = append(kinds, m.Kind) })
	a.Send("verifier", "anything", nil)
	e.RunFor(2 * time.Millisecond)
	if len(kinds) != 1 || kinds[0] != "anything" {
		t.Fatalf("kinds = %v", kinds)
	}
}

func TestSendUnknownNode(t *testing.T) {
	_, _, a, _ := pair(t, Config{})
	if err := a.Send("ghost", "x", nil); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v", err)
	}
}

func TestDuplicateNode(t *testing.T) {
	e := sim.New(1)
	n := NewNetwork(e, Config{})
	n.AddNode("a", key(t, 1))
	if _, err := n.AddNode("a", key(t, 2)); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("err = %v", err)
	}
}

func TestUnknownSenderRejected(t *testing.T) {
	e := sim.New(1)
	n := NewNetwork(e, Config{})
	a, _ := n.AddNode("stranger", key(t, 1))
	b, _ := n.AddNode("verifier", key(t, 2))
	// b does NOT trust a.
	var got int
	b.Handle("", func(Message) { got++ })
	a.Send("verifier", "x", nil)
	e.RunFor(2 * time.Millisecond)
	if got != 0 {
		t.Fatal("untrusted sender delivered")
	}
	if b.Rejected() != 1 {
		t.Fatalf("rejected = %d", b.Rejected())
	}
	if n.Stats().AuthFail != 1 {
		t.Fatalf("stats = %+v", n.Stats())
	}
}

func TestMITMTamperDetected(t *testing.T) {
	e, n, a, b := pair(t, Config{})
	nm, err := monitor.NewNetMonitor(e, monitor.NetConfig{}, monitor.SinkFunc(func(monitor.Alert) {}))
	if err != nil {
		t.Fatal(err)
	}
	b.AttachMonitor(nm)

	// MITM modifies the payload but cannot re-sign.
	n.SetMITM(func(m Message) *Message {
		m.Payload = []byte("open the breaker NOW")
		return &m
	})
	var got int
	b.Handle("", func(Message) { got++ })
	a.Send("verifier", "command", []byte("status ok"))
	e.RunFor(2 * time.Millisecond)
	if got != 0 {
		t.Fatal("tampered message delivered")
	}
	if n.Stats().Tampered != 1 || n.Stats().AuthFail != 1 {
		t.Fatalf("stats = %+v", n.Stats())
	}
	if nm.Snapshot()["alerts_total"] == 0 {
		t.Fatal("monitor saw nothing")
	}
}

func TestMITMDrop(t *testing.T) {
	e, n, a, b := pair(t, Config{})
	n.SetMITM(func(Message) *Message { return nil })
	var got int
	b.Handle("", func(Message) { got++ })
	a.Send("verifier", "x", nil)
	e.RunFor(2 * time.Millisecond)
	if got != 0 || n.Stats().Lost != 1 {
		t.Fatalf("got=%d stats=%+v", got, n.Stats())
	}
}

func TestReplayRejected(t *testing.T) {
	e, n, a, b := pair(t, Config{})
	// Capture and replay: MITM records the first message and injects a
	// copy after it.
	var captured *Message
	n.SetMITM(func(m Message) *Message {
		if captured == nil {
			c := m
			captured = &c
		}
		return &m
	})
	var got int
	b.Handle("", func(Message) { got++ })
	a.Send("verifier", "reading", []byte("50Hz"))
	e.RunFor(2 * time.Millisecond)
	if got != 1 {
		t.Fatalf("original not delivered: got=%d", got)
	}
	// Replay the captured message verbatim: a byte-identical repeat is
	// indistinguishable from link-level duplication, so it is absorbed
	// silently — not delivered twice, but not an alert either.
	n.SetMITM(nil)
	n.transmit(*captured)
	e.RunFor(2 * time.Millisecond)
	if got != 1 {
		t.Fatal("replay delivered")
	}
	if st := n.Stats(); st.Duplicated != 1 || st.Replayed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// A nonce reused for DIFFERENT content is a real replay-splice:
	// rejected and flagged. (The attacker holds a's key here to make the
	// signature valid — the nonce check is the only line of defence.)
	forged := *captured
	forged.Payload = []byte("49Hz")
	forged.Signature = key(t, 1).Sign(forged.body())
	n.transmit(forged)
	e.RunFor(2 * time.Millisecond)
	if got != 1 {
		t.Fatal("forged same-nonce message delivered")
	}
	if st := n.Stats(); st.Replayed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLoss(t *testing.T) {
	e := sim.New(42)
	n := NewNetwork(e, Config{Loss: 0.5})
	a, _ := n.AddNode("a", key(t, 1))
	b, _ := n.AddNode("b", key(t, 2))
	b.Trust("a", a.PublicKey())
	var got int
	b.Handle("", func(Message) { got++ })
	for i := 0; i < 200; i++ {
		a.Send("b", "x", nil)
	}
	e.RunFor(10 * time.Millisecond)
	if got == 0 || got == 200 {
		t.Fatalf("loss=0.5 delivered %d of 200", got)
	}
	st := n.Stats()
	if st.Lost+st.Delivered != 200 {
		t.Fatalf("stats don't add up: %+v", st)
	}
}

func TestNoncesStrictlyIncrease(t *testing.T) {
	e, _, a, b := pair(t, Config{})
	var nonces []uint64
	b.Handle("", func(m Message) { nonces = append(nonces, m.Nonce) })
	for i := 0; i < 10; i++ {
		a.Send("verifier", "x", nil)
	}
	e.RunFor(5 * time.Millisecond)
	for i := 1; i < len(nonces); i++ {
		if nonces[i] <= nonces[i-1] {
			t.Fatalf("nonces not increasing: %v", nonces)
		}
	}
}
