package scenario

import (
	"math"
	"strings"
	"testing"

	"cres/internal/cryptoutil"
	"cres/internal/fleet"
)

func TestFleetSpecCompileDefaults(t *testing.T) {
	cf, err := FleetSpec{Name: "f", Size: 1000, TamperEvery: 8, TamperOffset: 3}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(cf.Devices) != 1 || cf.Devices[0].Spec.Name != "f-ref" {
		t.Fatalf("default mix = %+v", cf.Devices)
	}
	cfg := cf.Config
	if cfg.BatchSize != fleet.DefaultBatchSize || cfg.ShardSize != fleet.DefaultShardSize || cfg.SampleK != fleet.DefaultSampleK {
		t.Fatalf("defaults not filled: %+v", cfg)
	}
	if len(cfg.Shares) != 1 || cfg.Shares[0].Fraction != 1 {
		t.Fatalf("shares = %+v", cfg.Shares)
	}
	// The share's golden measurement is the compiled device's firmware
	// payload digest — the allowlist entry the verifier appraises
	// against.
	if want := cryptoutil.Sum(cf.Devices[0].Spec.FirmwarePayload); cfg.Shares[0].Firmware != want {
		t.Fatalf("share firmware digest does not match the compiled device payload")
	}
	if cfg.Seed != 0 {
		t.Fatalf("compiled fleet carries seed %d; seeds are per-run", cfg.Seed)
	}
}

func TestFleetSpecCompileMix(t *testing.T) {
	cf, err := FleetSpec{
		Name: "mixed",
		Size: 4096,
		Shares: []FleetShare{
			{Device: DeviceSpec{Name: "sensor"}, Fraction: 0.75, TamperRate: 0.02},
			{Device: DeviceSpec{Name: "gateway", FirmwarePayload: []byte("gw fw")}, Fraction: 0.25},
		},
	}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if cf.Config.Shares[0].Label != "sensor" || cf.Config.Shares[1].Label != "gateway" {
		t.Fatalf("share labels = %+v", cf.Config.Shares)
	}
	if cf.Config.Shares[0].Firmware == cf.Config.Shares[1].Firmware {
		t.Fatal("distinct firmware payloads compiled to the same measurement")
	}
	eng, err := cf.Engine(7)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Config().Seed != 7 {
		t.Fatalf("engine seed = %d", eng.Config().Seed)
	}
}

func TestFleetSpecCompileErrors(t *testing.T) {
	base := func() FleetSpec {
		return FleetSpec{
			Name: "f",
			Size: 100,
			Shares: []FleetShare{
				{Device: DeviceSpec{Name: "a"}, Fraction: 0.5},
				{Device: DeviceSpec{Name: "b"}, Fraction: 0.5},
			},
		}
	}
	cases := []struct {
		name string
		mut  func(*FleetSpec)
		want string
	}{
		{"no name", func(s *FleetSpec) { s.Name = "" }, "name"},
		{"zero size", func(s *FleetSpec) { s.Size = 0 }, "size"},
		{"empty mix", func(s *FleetSpec) { s.Shares = []FleetShare{} }, "mix"},
		{"nan fraction", func(s *FleetSpec) { s.Shares[0].Fraction = math.NaN() }, "fraction"},
		{"inf rate", func(s *FleetSpec) { s.Shares[0].TamperRate = math.Inf(1) }, "tamper rate"},
		{"sum below 1", func(s *FleetSpec) { s.Shares[1].Fraction = 0.25 }, "sum"},
		{"bad device", func(s *FleetSpec) { s.Shares[0].Device.Arch = "tofu" }, "architecture"},
		{"rule and rates", func(s *FleetSpec) { s.TamperEvery = 8; s.Shares[0].TamperRate = 0.5 }, "exclusive"},
		{"batch above shard", func(s *FleetSpec) { s.BatchSize = 64; s.ShardSize = 32 }, "batch"},
	}
	for _, tc := range cases {
		spec := base()
		tc.mut(&spec)
		_, err := spec.Compile()
		if err == nil {
			t.Errorf("%s: Compile accepted invalid spec", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestFleetCompileAllocs gates what a cresd store hit pays to lower a
// request: compiling the E8 reference spec (cres.E8FleetSpec, written
// out because this package cannot import cres) validates through
// fleet.Config.Normalize and builds no engine. Building one would
// compile every boot variant (log replays, allowlist maps, quote-body
// templates): 62 allocations in all, against 23 without it.
func TestFleetCompileAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	spec := FleetSpec{Name: "e8", Size: 256, TamperEvery: 8, TamperOffset: 3}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := spec.Compile(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 32 {
		t.Fatalf("FleetSpec.Compile of the E8 spec allocates %.0f times, budget 32", allocs)
	}
}
