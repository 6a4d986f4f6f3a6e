package threatmodel

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddAssetValidation(t *testing.T) {
	m := NewModel()
	if err := m.AddAsset(Asset{Name: "", Criticality: 3}); err == nil {
		t.Fatal("unnamed asset accepted")
	}
	if err := m.AddAsset(Asset{Name: "a", Criticality: 0}); !errors.Is(err, ErrBadCriticality) {
		t.Fatalf("err = %v", err)
	}
	if err := m.AddAsset(Asset{Name: "a", Criticality: 6}); !errors.Is(err, ErrBadCriticality) {
		t.Fatalf("err = %v", err)
	}
	if err := m.AddAsset(Asset{Name: "a", Criticality: 3}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddAsset(Asset{Name: "a", Criticality: 3}); !errors.Is(err, ErrDuplicateAsset) {
		t.Fatalf("err = %v", err)
	}
}

func TestDREADScore(t *testing.T) {
	d := DREAD{10, 10, 10, 10, 10}
	if d.Score() != 10 {
		t.Fatalf("score = %f", d.Score())
	}
	d = DREAD{1, 2, 3, 4, 5}
	if d.Score() != 3 {
		t.Fatalf("score = %f", d.Score())
	}
}

func TestAddThreatValidation(t *testing.T) {
	m := NewModel()
	m.AddAsset(Asset{Name: "fw", Criticality: 5})
	if _, err := m.AddThreat("ghost", Tampering, "x", DREAD{5, 5, 5, 5, 5}); !errors.Is(err, ErrUnknownAsset) {
		t.Fatalf("err = %v", err)
	}
	if _, err := m.AddThreat("fw", Tampering, "x", DREAD{0, 5, 5, 5, 5}); !errors.Is(err, ErrBadScore) {
		t.Fatalf("err = %v", err)
	}
	th, err := m.AddThreat("fw", Tampering, "x", DREAD{5, 5, 5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if th.ID != "T01" {
		t.Fatalf("ID = %s", th.ID)
	}
	th2, _ := m.AddThreat("fw", Spoofing, "y", DREAD{5, 5, 5, 5, 5})
	if th2.ID != "T02" {
		t.Fatalf("ID = %s", th2.ID)
	}
}

func TestRiskLevels(t *testing.T) {
	cases := []struct {
		score       DREAD
		criticality int
		want        RiskLevel
	}{
		{DREAD{10, 10, 10, 10, 10}, 5, RiskCritical}, // 10*1
		{DREAD{10, 10, 10, 10, 10}, 3, RiskHigh},     // 10*0.6=6
		{DREAD{5, 5, 5, 5, 5}, 5, RiskHigh},          // 5
		{DREAD{5, 5, 5, 5, 5}, 3, RiskMedium},        // 3
		{DREAD{1, 1, 1, 1, 1}, 5, RiskLow},           // 1
	}
	for i, c := range cases {
		th := Threat{Score: c.score}
		if got := th.Risk(c.criticality); got != c.want {
			t.Errorf("case %d: risk = %v, want %v", i, got, c.want)
		}
	}
}

func TestEnumerateSTRIDE(t *testing.T) {
	m := NewModel()
	m.AddAsset(Asset{Name: "m2m-link", Criticality: 4, Interfaces: []Interface{IfaceNetwork}})
	threats, err := m.EnumerateSTRIDE("m2m-link")
	if err != nil {
		t.Fatal(err)
	}
	if len(threats) != 4 { // network exposes 4 generic threats
		t.Fatalf("threats = %d", len(threats))
	}
	var sawSpoofing bool
	for _, th := range threats {
		if th.Category == Spoofing {
			sawSpoofing = true
		}
		if !strings.Contains(th.Description, "[network]") {
			t.Fatalf("description = %q", th.Description)
		}
	}
	if !sawSpoofing {
		t.Fatal("no spoofing threat for network interface")
	}
	if _, err := m.EnumerateSTRIDE("ghost"); !errors.Is(err, ErrUnknownAsset) {
		t.Fatalf("err = %v", err)
	}
}

func TestRiskMatrixOrdering(t *testing.T) {
	m := NewModel()
	m.AddAsset(Asset{Name: "low", Criticality: 1})
	m.AddAsset(Asset{Name: "high", Criticality: 5})
	m.AddThreat("low", Tampering, "minor", DREAD{2, 2, 2, 2, 2})
	m.AddThreat("high", Tampering, "major", DREAD{10, 9, 9, 10, 8})
	matrix := m.RiskMatrix()
	if len(matrix) != 2 {
		t.Fatalf("matrix = %d", len(matrix))
	}
	if matrix[0].Threat.Asset != "high" || matrix[0].Level < matrix[1].Level {
		t.Fatalf("matrix not sorted by level: %+v", matrix)
	}
}

func TestSTRIDEStrings(t *testing.T) {
	for _, s := range []STRIDE{Spoofing, Tampering, Repudiation, InformationDisclosure, DenialOfService, ElevationOfPrivilege} {
		if strings.HasPrefix(s.String(), "stride(") {
			t.Errorf("missing name for %d", s)
		}
	}
}

func TestRiskLevelStrings(t *testing.T) {
	for _, r := range []RiskLevel{RiskLow, RiskMedium, RiskHigh, RiskCritical} {
		if strings.HasPrefix(r.String(), "risk(") {
			t.Errorf("missing name for %d", r)
		}
	}
}

func TestAssetsSorted(t *testing.T) {
	m := NewModel()
	m.AddAsset(Asset{Name: "zeta", Criticality: 1})
	m.AddAsset(Asset{Name: "alpha", Criticality: 1})
	assets := m.Assets()
	if assets[0].Name != "alpha" || assets[1].Name != "zeta" {
		t.Fatalf("assets = %+v", assets)
	}
}

// Property: risk level is monotonic in criticality for a fixed score.
func TestPropertyRiskMonotonicInCriticality(t *testing.T) {
	f := func(d, r, e, a, disc uint8) bool {
		clamp := func(v uint8) int { return int(v)%10 + 1 }
		th := Threat{Score: DREAD{clamp(d), clamp(r), clamp(e), clamp(a), clamp(disc)}}
		prev := th.Risk(1)
		for c := 2; c <= 5; c++ {
			cur := th.Risk(c)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
