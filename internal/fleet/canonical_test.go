package fleet

import (
	"bytes"
	"testing"

	"cres/internal/cryptoutil"
)

func canonicalTestConfig() Config {
	return Config{
		Seed: 7,
		Size: 1024,
		Shares: []Share{
			{Label: "sensor", Firmware: cryptoutil.Sum([]byte("fw-a")), FirmwareDesc: "sensor firmware v1", Fraction: 0.75, TamperRate: 0.02},
			{Label: "gateway", Firmware: cryptoutil.Sum([]byte("fw-b")), FirmwareDesc: "gateway firmware v2", Fraction: 0.25},
		},
		BatchSize: 128,
		ShardSize: 512,
		SampleK:   8,
	}
}

func TestConfigCanonicalEqualConfigsEncodeEqual(t *testing.T) {
	a := canonicalTestConfig().AppendCanonical(nil)
	b := canonicalTestConfig().AppendCanonical(nil)
	if !bytes.Equal(a, b) {
		t.Fatal("identical configs encode differently")
	}
}

// TestConfigCanonicalSeedExcluded: the store keys (experiment, seed,
// digest) separately, so the same workload at two seeds must share one
// canonical encoding.
func TestConfigCanonicalSeedExcluded(t *testing.T) {
	a := canonicalTestConfig()
	b := canonicalTestConfig()
	b.Seed = 99
	if !bytes.Equal(a.AppendCanonical(nil), b.AppendCanonical(nil)) {
		t.Fatal("seed leaked into the canonical config encoding")
	}
}

// TestConfigCanonicalSensitivity: every workload-shaping field must
// perturb the encoding — a silent non-encoded field would let two
// different workloads collide on one store key.
func TestConfigCanonicalSensitivity(t *testing.T) {
	base := canonicalTestConfig().AppendCanonical(nil)
	mutations := map[string]func(*Config){
		"size":          func(c *Config) { c.Size++ },
		"tamper-every":  func(c *Config) { c.TamperEvery = 8 },
		"batch":         func(c *Config) { c.BatchSize = 64 },
		"shard":         func(c *Config) { c.ShardSize = 256 },
		"sample-k":      func(c *Config) { c.SampleK = 4 },
		"share-label":   func(c *Config) { c.Shares[0].Label = "sensors" },
		"share-fw":      func(c *Config) { c.Shares[0].Firmware = cryptoutil.Sum([]byte("fw-x")) },
		"share-desc":    func(c *Config) { c.Shares[0].FirmwareDesc = "other" },
		"share-frac":    func(c *Config) { c.Shares[0].Fraction = 0.7; c.Shares[1].Fraction = 0.3 },
		"share-rate":    func(c *Config) { c.Shares[0].TamperRate = 0.03 },
		"share-dropped": func(c *Config) { c.Shares = c.Shares[:1]; c.Shares[0].Fraction = 1 },
	}
	for name, mutate := range mutations {
		c := canonicalTestConfig()
		mutate(&c)
		if bytes.Equal(base, c.AppendCanonical(nil)) {
			t.Errorf("mutation %q did not change the canonical encoding", name)
		}
	}
}

// TestConfigCanonicalBoundaryUnambiguous: moving a byte across the
// label/description boundary must not produce the same encoding.
func TestConfigCanonicalBoundaryUnambiguous(t *testing.T) {
	a := canonicalTestConfig()
	a.Shares[0].Label, a.Shares[0].FirmwareDesc = "ab", "cd"
	b := canonicalTestConfig()
	b.Shares[0].Label, b.Shares[0].FirmwareDesc = "abc", "d"
	if bytes.Equal(a.AppendCanonical(nil), b.AppendCanonical(nil)) {
		t.Fatal("string boundary ambiguity in canonical encoding")
	}
}
