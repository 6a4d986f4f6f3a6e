package scenario

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"cres/internal/attack"
)

// PlanStage is one step of an attack plan, naming a registered attack
// scenario and when it fires.
type PlanStage struct {
	// Scenario is the attack.Registry name of the stage's scenario.
	Scenario string
	// Delay is virtual time from plan launch to this stage's first
	// injection.
	Delay time.Duration
	// Repeat is how many times the stage launches (default 1).
	Repeat int
	// Gap separates repeated launches (default attack.DefaultStageGap).
	Gap time.Duration
}

// AttackPlan is an ordered, timed composition of attack scenarios — a
// whole intrusion (reconnaissance, escalation, persistence, cleanup) as
// one declarative object.
type AttackPlan struct {
	// Name is the plan's stable identifier.
	Name string
	// Description explains the intrusion the plan models.
	Description string
	// Stages fire at their delays after launch.
	Stages []PlanStage
}

// MaxPlanHorizon bounds how far a plan may schedule into virtual time.
// Experiment windows are milliseconds; a plan reaching beyond an hour
// is a spec bug (typically a delay unit typo), not a workload.
const MaxPlanHorizon = time.Hour

// CompiledPlan is a validated AttackPlan resolved against the attack
// registry, ready to launch.
type CompiledPlan struct {
	// Plan is the normalized spec.
	Plan AttackPlan

	staged attack.Staged
}

// Compile validates the plan against the attack registry and resolves
// it into a launchable attack.Staged.
func (p AttackPlan) Compile() (*CompiledPlan, error) {
	if p.Name == "" {
		return nil, fmt.Errorf("scenario: attack plan needs a name")
	}
	if len(p.Stages) == 0 {
		return nil, fmt.Errorf("scenario: plan %q has no stages", p.Name)
	}
	staged := attack.Staged{PlanName: p.Name, Desc: p.Description}
	for i, st := range p.Stages {
		sc, ok := attack.Get(st.Scenario)
		if !ok {
			return nil, fmt.Errorf("scenario: plan %q stage %d: unknown scenario %q (known: %s)",
				p.Name, i, st.Scenario, strings.Join(attack.SortedNames(), ", "))
		}
		if st.Delay < 0 {
			return nil, fmt.Errorf("scenario: plan %q stage %d (%s): negative delay %v", p.Name, i, st.Scenario, st.Delay)
		}
		if st.Repeat < 0 {
			return nil, fmt.Errorf("scenario: plan %q stage %d (%s): negative repeat %d", p.Name, i, st.Scenario, st.Repeat)
		}
		if st.Gap < 0 {
			return nil, fmt.Errorf("scenario: plan %q stage %d (%s): negative gap %v", p.Name, i, st.Scenario, st.Gap)
		}
		gap := st.Gap
		if gap <= 0 {
			gap = attack.DefaultStageGap
		}
		end := st.Delay
		if st.Repeat > 1 {
			span := time.Duration(st.Repeat-1) * gap
			if span/gap != time.Duration(st.Repeat-1) || end+span < end {
				return nil, fmt.Errorf("scenario: plan %q stage %d (%s): stage schedule overflows virtual time", p.Name, i, st.Scenario)
			}
			end += span
		}
		if end > MaxPlanHorizon {
			return nil, fmt.Errorf("scenario: plan %q stage %d (%s): delay %v beyond the %v plan horizon", p.Name, i, st.Scenario, end, MaxPlanHorizon)
		}
		staged.Stages = append(staged.Stages, attack.Stage{
			Scenario: sc, Delay: st.Delay, Repeat: st.Repeat, Gap: st.Gap,
		})
	}
	return &CompiledPlan{Plan: p, staged: staged}, nil
}

// Scenario returns the plan as a launchable attack scenario.
func (c *CompiledPlan) Scenario() attack.Scenario { return c.staged }

// ExpectedSignatures is the union of the stages' expected alert
// signatures in first-occurrence order.
func (c *CompiledPlan) ExpectedSignatures() []string { return c.staged.ExpectedSignatures() }

// BuiltinPlans returns the built-in staged attack plans in presentation
// order — the multi-phase intrusions the campaign matrix runs alongside
// the single-scenario suite.
func BuiltinPlans() []AttackPlan {
	return []AttackPlan{
		{
			Name:        "recon-exfil-wipe",
			Description: "reconnaissance, then covert-channel exfiltration, then log destruction to cover the trail",
			Stages: []PlanStage{
				{Scenario: "secure-probe"},
				{Scenario: "cache-covert-channel", Delay: 6 * time.Millisecond},
				{Scenario: "log-wipe", Delay: 16 * time.Millisecond},
			},
		},
		{
			Name:        "implant-persist",
			Description: "runtime implant install, a rollback to a vulnerable release via DMA, then a voltage glitch to force a reboot into the downgraded slot",
			Stages: []PlanStage{
				{Scenario: "firmware-tamper"},
				{Scenario: "firmware-downgrade", Delay: 8 * time.Millisecond},
				{Scenario: "voltage-glitch", Delay: 16 * time.Millisecond},
			},
		},
		{
			Name:        "network-takeover",
			Description: "man-in-the-middle command injection, a bus flood to starve the legitimate control loop, then code injection on the confused device",
			Stages: []PlanStage{
				{Scenario: "m2m-mitm"},
				{Scenario: "bus-flood", Delay: 6 * time.Millisecond},
				{Scenario: "code-injection", Delay: 14 * time.Millisecond},
			},
		},
	}
}

// ParsePlans parses a CLI -plan value into attack plans:
//
//   - "" selects every built-in plan;
//   - "none" selects no plans;
//   - a comma-separated list of built-in plan names selects those;
//   - a value containing "@" is one custom plan in stage syntax:
//     "scenario@delay,scenario@delay" with an optional "*N" repeat
//     suffix per stage ("log-wipe@10ms*3"); a bare scenario name fires
//     at delay 0.
func ParsePlans(s string) ([]AttackPlan, error) {
	s = strings.TrimSpace(s)
	switch s {
	case "":
		return BuiltinPlans(), nil
	case "none":
		// Non-nil empty: nil means "default to built-ins" downstream
		// (CampaignSpec.Plans), which is the opposite of "none".
		return []AttackPlan{}, nil
	}
	if strings.Contains(s, "@") {
		plan, err := ParsePlanStages("custom", s)
		if err != nil {
			return nil, err
		}
		return []AttackPlan{plan}, nil
	}
	byName := make(map[string]AttackPlan)
	var names []string
	for _, p := range BuiltinPlans() {
		byName[p.Name] = p
		names = append(names, p.Name)
	}
	var out []AttackPlan
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		p, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("scenario: unknown plan %q (built-ins: %s; or use scenario@delay,... syntax)",
				name, strings.Join(names, ", "))
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("scenario: -plan value %q names no plans", s)
	}
	return out, nil
}

// ParsePlanStages parses "scenario@delay,scenario@delay*N" stage syntax
// into a named plan. The plan is parsed only — call Compile to validate
// scenario names and the schedule.
func ParsePlanStages(name, s string) (AttackPlan, error) {
	plan := AttackPlan{Name: name, Description: "custom staged plan: " + s}
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		stage := PlanStage{Scenario: field}
		if at := strings.IndexByte(field, '@'); at >= 0 {
			stage.Scenario = strings.TrimSpace(field[:at])
			rest := strings.TrimSpace(field[at+1:])
			if star := strings.IndexByte(rest, '*'); star >= 0 {
				n, err := strconv.Atoi(strings.TrimSpace(rest[star+1:]))
				if err != nil {
					return AttackPlan{}, fmt.Errorf("scenario: stage %q: bad repeat count: %v", field, err)
				}
				stage.Repeat = n
				rest = strings.TrimSpace(rest[:star])
			}
			if rest != "" && rest != "0" {
				d, err := time.ParseDuration(rest)
				if err != nil {
					return AttackPlan{}, fmt.Errorf("scenario: stage %q: bad delay: %v", field, err)
				}
				stage.Delay = d
			}
		}
		if stage.Scenario == "" {
			return AttackPlan{}, fmt.Errorf("scenario: stage %q names no scenario", field)
		}
		plan.Stages = append(plan.Stages, stage)
	}
	if len(plan.Stages) == 0 {
		return AttackPlan{}, fmt.Errorf("scenario: plan syntax %q has no stages", s)
	}
	return plan, nil
}
