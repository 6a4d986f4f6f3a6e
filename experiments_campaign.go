package cres

import (
	"fmt"
	"time"

	"cres/internal/core"
	"cres/internal/harness"
	"cres/internal/report"
	"cres/internal/scenario"
)

// This file implements E12, the scenario campaign: the full cross
// product of every attack — the registered single scenarios plus the
// staged multi-phase plans — × {cres, baseline} × N seeds, each cell
// an independent device run on its own shard. E3 is this campaign at
// one seed without plans; where E3 answers "does CRES detect scenario
// X at one seed", the campaign answers the paper's stronger claim —
// detection, response AND recovery hold across the whole scenario
// space regardless of the simulation's random stream. The matrix
// itself is data: a scenario.CampaignSpec compiled into cells and
// fanned over the harness pool, so growing the campaign means
// declaring a new scenario or plan, not editing this file.

// E12Cell is one campaign run: one attack on one architecture at one
// derived seed.
type E12Cell struct {
	// Scenario is the attack name — a registered scenario or a staged
	// plan.
	Scenario string
	Arch     string
	// Kind is scenario.KindScenario or scenario.KindPlan.
	Kind      string
	SeedIndex int
	Seed      int64
	// Detected: CRES saw every expected signature; baseline logged
	// anything at all during the attack window.
	Detected bool
	// Latency is virtual time from launch to first expected-signature
	// detection (zero when undetected).
	Latency time.Duration
	// Responded: the SSM fired at least one playbook response.
	Responded bool
	// Recovered: after the operator restored isolated resources, the
	// device reports a healthy state with its critical service up.
	// Structurally false on baseline: it has no targeted recovery.
	Recovered bool
}

// E12Row aggregates one (attack, architecture) cell across seeds.
type E12Row struct {
	Scenario string
	Arch     string
	Kind     string
	Seeds    int
	// Detected, Responded and Recovered count seeds where the outcome
	// held.
	Detected, Responded, Recovered int
	// MeanLatency averages detection latency over detected seeds.
	MeanLatency time.Duration
}

// E12Result is the campaign outcome matrix.
type E12Result struct {
	Cells []E12Cell
	Rows  []E12Row
	Table *report.Table
	// CRESDetectRate and BaselineDetectRate aggregate over every cell
	// of the architecture.
	CRESDetectRate, BaselineDetectRate float64
	// CRESRecoverRate is the fraction of CRES cells that ended healthy
	// with the critical service up.
	CRESRecoverRate float64
}

// RunE12Campaign compiles the campaign spec and runs its matrix. Cells
// are fanned across the harness pool; the matrix is merged in cell
// order, so the result is byte-identical at any parallelism.
func RunE12Campaign(spec scenario.CampaignSpec, pool *harness.Pool) (*E12Result, error) {
	cc, err := spec.Compile()
	if err != nil {
		return nil, err
	}

	cells, err := scenario.RunCells(pool, cc, func(cell scenario.Cell) (E12Cell, error) {
		out, err := runCampaignCell(cell)
		if err != nil {
			return E12Cell{}, fmt.Errorf("campaign %s/%s seed %d: %w", cell.Attack.Name, cell.Device.Spec.Arch, cell.SeedIndex, err)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	res := &E12Result{Cells: cells}
	var cresCells, cresDetected, cresRecovered, baseCells, baseDetected int
	perAttack := len(cc.Devices) * spec.Seeds
	var scenarios, plans int
	for _, att := range cc.Attacks {
		if att.Kind == scenario.KindPlan {
			plans++
		} else {
			scenarios++
		}
	}
	for ai, att := range cc.Attacks {
		for di, dev := range cc.Devices {
			row := E12Row{Scenario: att.Name, Arch: dev.Spec.Arch, Kind: att.Kind, Seeds: spec.Seeds}
			var latSum time.Duration
			for s := 0; s < spec.Seeds; s++ {
				cell := cells[ai*perAttack+di*spec.Seeds+s]
				if cell.Detected {
					row.Detected++
					latSum += cell.Latency
				}
				if cell.Responded {
					row.Responded++
				}
				if cell.Recovered {
					row.Recovered++
				}
				if dev.IsCRES() {
					cresCells++
					if cell.Detected {
						cresDetected++
					}
					if cell.Recovered {
						cresRecovered++
					}
				} else {
					baseCells++
					if cell.Detected {
						baseDetected++
					}
				}
			}
			if row.Detected > 0 {
				row.MeanLatency = latSum / time.Duration(row.Detected)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	if cresCells > 0 {
		res.CRESDetectRate = float64(cresDetected) / float64(cresCells)
		res.CRESRecoverRate = float64(cresRecovered) / float64(cresCells)
	}
	if baseCells > 0 {
		res.BaselineDetectRate = float64(baseDetected) / float64(baseCells)
	}

	frac := func(n, of int) string { return fmt.Sprintf("%d/%d", n, of) }
	t := report.NewTable(
		fmt.Sprintf("E12 — Scenario campaign: %d scenarios + %d staged plans × {cres, baseline} × %d seeds (root seed %d)",
			scenarios, plans, spec.Seeds, spec.RootSeed),
		"Attack", "Kind", "Arch", "Detected", "Mean latency", "Responded", "Recovered")
	for _, r := range res.Rows {
		lat, rec := "-", "-"
		if r.Detected > 0 {
			lat = r.MeanLatency.String()
		}
		if r.Arch == scenario.ArchCRES {
			rec = frac(r.Recovered, r.Seeds)
		}
		t.AddRow(r.Scenario, r.Kind, r.Arch, frac(r.Detected, r.Seeds), lat, frac(r.Responded, r.Seeds), rec)
	}
	t.AddRow("TOTAL cres", "", "", report.Pct(res.CRESDetectRate), "", "", report.Pct(res.CRESRecoverRate))
	t.AddRow("TOTAL baseline", "", "", report.Pct(res.BaselineDetectRate), "", "", "-")
	res.Table = t
	return res, nil
}

// runCampaignCell executes one compiled campaign cell: the attack cell
// (RunAttack) on the device the cell's spec describes, then — on CRES —
// the operator recovery flow.
func runCampaignCell(cell scenario.Cell) (E12Cell, error) {
	out := E12Cell{
		Scenario:  cell.Attack.Name,
		Arch:      cell.Device.Spec.Arch,
		Kind:      cell.Attack.Kind,
		SeedIndex: cell.SeedIndex,
		Seed:      cell.Seed,
	}
	spec := cell.Device.Spec
	spec.Seed = cell.Seed
	r, err := RunAttack(spec, cell.Attack.Scenario)
	if err != nil {
		return out, err
	}
	out.Detected, out.Latency = r.Detected()
	dev := r.Device()
	if dev.SSM == nil {
		return out, nil
	}
	out.Responded = dev.SSM.ResponsesFired() > 0

	// Operator recovery: restore whatever the playbook isolated, then
	// declare the application core verified clean. Recovery counts only
	// if the device ends healthy with its critical service up.
	for _, resource := range dev.Responder.Isolated() {
		if err := dev.Recover(resource, "campaign: operator verified and restored"); err != nil {
			return out, err
		}
	}
	if err := dev.Recover(dev.SoC.AppCore.Name(), "campaign: post-incident health check"); err != nil {
		return out, err
	}
	dev.RunFor(5 * time.Millisecond)
	out.Recovered = dev.SSM.State() == core.StateHealthy && dev.Degrader.CriticalUp()
	return out, nil
}
