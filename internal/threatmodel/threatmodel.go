package threatmodel

import (
	"errors"
	"fmt"
	"sort"
)

// STRIDE is a threat category.
type STRIDE uint8

// STRIDE categories.
const (
	Spoofing STRIDE = iota + 1
	Tampering
	Repudiation
	InformationDisclosure
	DenialOfService
	ElevationOfPrivilege
)

// String implements fmt.Stringer.
func (s STRIDE) String() string {
	switch s {
	case Spoofing:
		return "spoofing"
	case Tampering:
		return "tampering"
	case Repudiation:
		return "repudiation"
	case InformationDisclosure:
		return "information-disclosure"
	case DenialOfService:
		return "denial-of-service"
	case ElevationOfPrivilege:
		return "elevation-of-privilege"
	default:
		return fmt.Sprintf("stride(%d)", uint8(s))
	}
}

// Interface is an asset's exposure surface.
type Interface string

// Interface kinds used by the generic enumerator.
const (
	IfaceBus      Interface = "bus"
	IfaceNetwork  Interface = "network"
	IfaceFirmware Interface = "firmware"
	IfacePhysical Interface = "physical"
	IfaceCache    Interface = "shared-cache"
	IfaceActuator Interface = "actuator"
)

// Asset is a system component under protection.
type Asset struct {
	// Name identifies the asset, e.g. "firmware", "m2m-link".
	Name string
	// Description says what it is.
	Description string
	// Interfaces are the exposure surfaces the asset presents.
	Interfaces []Interface
	// Criticality is 1 (low) to 5 (mission critical).
	Criticality int
}

// DREAD is the classic 5-axis risk score, each axis 1..10.
type DREAD struct {
	Damage          int
	Reproducibility int
	Exploitability  int
	AffectedUsers   int
	Discoverability int
}

// Score returns the mean of the five axes.
func (d DREAD) Score() float64 {
	return float64(d.Damage+d.Reproducibility+d.Exploitability+d.AffectedUsers+d.Discoverability) / 5
}

// valid reports whether every axis is within 1..10.
func (d DREAD) valid() bool {
	for _, v := range []int{d.Damage, d.Reproducibility, d.Exploitability, d.AffectedUsers, d.Discoverability} {
		if v < 1 || v > 10 {
			return false
		}
	}
	return true
}

// RiskLevel buckets a combined risk score.
type RiskLevel uint8

// Risk levels.
const (
	RiskLow RiskLevel = iota + 1
	RiskMedium
	RiskHigh
	RiskCritical
)

// String implements fmt.Stringer.
func (r RiskLevel) String() string {
	switch r {
	case RiskLow:
		return "low"
	case RiskMedium:
		return "medium"
	case RiskHigh:
		return "high"
	case RiskCritical:
		return "critical"
	default:
		return fmt.Sprintf("risk(%d)", uint8(r))
	}
}

// Threat is one identified threat against an asset.
type Threat struct {
	// ID is a stable identifier, e.g. "T03".
	ID string
	// Asset names the threatened asset.
	Asset string
	// Category is the STRIDE class.
	Category STRIDE
	// Description says how the threat manifests.
	Description string
	// Score is the DREAD risk assessment.
	Score DREAD
}

// Risk combines the DREAD score with the asset criticality into a level:
// risk = score * (criticality/5), bucketed at 2.5/5/7.5.
func (t *Threat) Risk(assetCriticality int) RiskLevel {
	v := t.Score.Score() * float64(assetCriticality) / 5
	switch {
	case v >= 7.5:
		return RiskCritical
	case v >= 5:
		return RiskHigh
	case v >= 2.5:
		return RiskMedium
	default:
		return RiskLow
	}
}

// Errors returned by the model.
var (
	ErrDuplicateAsset = errors.New("threatmodel: duplicate asset")
	ErrUnknownAsset   = errors.New("threatmodel: unknown asset")
	ErrBadScore       = errors.New("threatmodel: DREAD axes must be 1..10")
	ErrBadCriticality = errors.New("threatmodel: criticality must be 1..5")
)

// Model is the device threat model. Create with NewModel.
type Model struct {
	assets  map[string]Asset
	threats []Threat
	nextID  int
}

// NewModel creates an empty model.
func NewModel() *Model {
	return &Model{assets: make(map[string]Asset)}
}

// AddAsset registers an asset.
func (m *Model) AddAsset(a Asset) error {
	if a.Name == "" {
		return errors.New("threatmodel: asset needs a name")
	}
	if a.Criticality < 1 || a.Criticality > 5 {
		return fmt.Errorf("%w: %s has %d", ErrBadCriticality, a.Name, a.Criticality)
	}
	if _, dup := m.assets[a.Name]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicateAsset, a.Name)
	}
	m.assets[a.Name] = a
	return nil
}

// Assets returns all assets sorted by name.
func (m *Model) Assets() []Asset {
	out := make([]Asset, 0, len(m.assets))
	for _, a := range m.assets {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AddThreat records a manually identified threat.
func (m *Model) AddThreat(asset string, cat STRIDE, desc string, score DREAD) (Threat, error) {
	if _, ok := m.assets[asset]; !ok {
		return Threat{}, fmt.Errorf("%w: %s", ErrUnknownAsset, asset)
	}
	if !score.valid() {
		return Threat{}, ErrBadScore
	}
	m.nextID++
	t := Threat{
		ID:          fmt.Sprintf("T%02d", m.nextID),
		Asset:       asset,
		Category:    cat,
		Description: desc,
		Score:       score,
	}
	m.threats = append(m.threats, t)
	return t, nil
}

// Threats returns all identified threats in ID order.
func (m *Model) Threats() []Threat {
	out := make([]Threat, len(m.threats))
	copy(out, m.threats)
	return out
}

// interfaceThreats is the generic STRIDE knowledge base: which categories
// an interface exposes, with a template description and default score.
var interfaceThreats = map[Interface][]struct {
	cat   STRIDE
	desc  string
	score DREAD
}{
	IfaceBus: {
		{ElevationOfPrivilege, "bus security attribute manipulation grants normal world secure access", DREAD{9, 6, 5, 8, 4}},
		{Tampering, "rogue bus master overwrites memory of other components", DREAD{8, 7, 6, 7, 5}},
		{DenialOfService, "bus flooding starves legitimate initiators", DREAD{5, 8, 7, 6, 7}},
	},
	IfaceNetwork: {
		{Spoofing, "man-in-the-middle injects forged M2M commands", DREAD{9, 7, 6, 8, 6}},
		{Tampering, "in-flight message modification alters telemetry or commands", DREAD{8, 7, 6, 7, 6}},
		{Repudiation, "device denies having sent actuation commands", DREAD{5, 5, 4, 5, 4}},
		{DenialOfService, "message flood exhausts device network stack", DREAD{6, 8, 7, 6, 8}},
	},
	IfaceFirmware: {
		{Tampering, "unsigned or downgraded firmware installed in flash slot", DREAD{10, 6, 5, 9, 5}},
		{ElevationOfPrivilege, "persistent early code execution via bootchain flaw", DREAD{10, 4, 4, 9, 3}},
	},
	IfacePhysical: {
		{Tampering, "voltage/clock glitching corrupts execution", DREAD{8, 5, 4, 6, 4}},
		{InformationDisclosure, "physical side channels leak key material", DREAD{8, 4, 4, 7, 3}},
	},
	IfaceCache: {
		{InformationDisclosure, "cross-world cache covert channel exfiltrates secrets", DREAD{8, 6, 5, 7, 4}},
	},
	IfaceActuator: {
		{Tampering, "spoofed or hijacked commands drive actuator to unsafe state", DREAD{10, 6, 5, 9, 5}},
		{DenialOfService, "actuator lockout prevents protective action", DREAD{9, 6, 5, 8, 5}},
	},
}

// EnumerateSTRIDE generates the generic threats implied by an asset's
// interfaces and records them in the model. It returns the new threats.
func (m *Model) EnumerateSTRIDE(asset string) ([]Threat, error) {
	a, ok := m.assets[asset]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownAsset, asset)
	}
	var out []Threat
	for _, iface := range a.Interfaces {
		for _, tpl := range interfaceThreats[iface] {
			t, err := m.AddThreat(asset, tpl.cat, fmt.Sprintf("[%s] %s", iface, tpl.desc), tpl.score)
			if err != nil {
				return nil, err
			}
			out = append(out, t)
		}
	}
	return out, nil
}

// MatrixEntry is one row of the risk matrix.
type MatrixEntry struct {
	Threat Threat
	Level  RiskLevel
}

// RiskMatrix returns every threat with its computed risk level, sorted
// by level (critical first) then ID.
func (m *Model) RiskMatrix() []MatrixEntry {
	out := make([]MatrixEntry, 0, len(m.threats))
	for _, t := range m.threats {
		a := m.assets[t.Asset]
		out = append(out, MatrixEntry{Threat: t, Level: t.Risk(a.Criticality)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Level != out[j].Level {
			return out[i].Level > out[j].Level
		}
		return out[i].Threat.ID < out[j].Threat.ID
	})
	return out
}
