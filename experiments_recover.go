package cres

import (
	"errors"
	"time"

	"cres/internal/attack"
	"cres/internal/boot"
	"cres/internal/harness"
	"cres/internal/report"
	"cres/internal/scenario"
)

// This file implements experiments E6 (recovery strategies) and E7
// (anti-rollback vs the downgrade attack).

// E6Row is one recovery strategy's outcome.
type E6Row struct {
	Strategy string
	// TimeToHealthy is virtual time from compromise to restored
	// service.
	TimeToHealthy time.Duration
	// CriticalOutage is how long the critical service was down.
	CriticalOutage time.Duration
	// RemovesCompromise reports whether the strategy actually evicts
	// the attacker (a plain reboot does not).
	RemovesCompromise bool
}

// E6Result compares recovery strategies.
type E6Result struct {
	Rows  []E6Row
	Table *report.Table
}

// RunE6Recovery measures time-to-healthy for three strategies after a
// code-injection compromise:
//
//   - cres-isolate-restore: SSM contains the core, operator restores it
//     after verification (targeted recovery; critical service never
//     drops thanks to the fallback).
//   - cres-rollforward: staged v2 firmware update activated through the
//     boot chain (removes the compromise; outage = activation reboot).
//   - baseline-reboot: power cycle back into the SAME firmware — fast to
//     describe, slow in outage, and the vulnerability persists.
//
// Each strategy runs on its own shard.
func RunE6Recovery(seed int64, pool *harness.Pool) (*E6Result, error) {
	strategies := []func(harness.Shard) (E6Row, error){e6IsolateRestore, e6RollForward, e6BaselineReboot}
	rows, err := harness.Map(pool, len(strategies), seed, func(sh harness.Shard) (E6Row, error) {
		return strategies[sh.Index](sh)
	})
	if err != nil {
		return nil, err
	}
	res := &E6Result{Rows: rows}

	t := report.NewTable("E6 — Recovery strategies after compromise",
		"Strategy", "Time to healthy", "Critical-service outage", "Removes compromise")
	for _, r := range res.Rows {
		t.AddRow(r.Strategy, r.TimeToHealthy.String(), r.CriticalOutage.String(), yn(r.RemovesCompromise))
	}
	res.Table = t
	return res, nil
}

// e6IsolateRestore is strategy 1: CRES isolate + targeted restore.
func e6IsolateRestore(sh harness.Shard) (E6Row, error) {
	tb, err := NewAttackTestbed(scenario.DeviceSpec{Name: "dut", Seed: sh.Seed})
	if err != nil {
		return E6Row{}, err
	}
	if err := tb.Warm(15 * time.Millisecond); err != nil {
		return E6Row{}, err
	}
	compromise := tb.dev.Now()
	if err := (attack.CodeInjection{}).Launch(tb.tgt); err != nil {
		return E6Row{}, err
	}
	tb.dev.RunFor(5 * time.Millisecond) // detection + containment
	// Operator verifies and restores 10ms later.
	tb.dev.RunFor(10 * time.Millisecond)
	if err := tb.dev.Recover("app-core", "image verified clean"); err != nil {
		return E6Row{}, err
	}
	return E6Row{
		Strategy:          "cres-isolate-restore",
		TimeToHealthy:     tb.dev.Now().Sub(compromise),
		CriticalOutage:    0, // fallback carried the critical service
		RemovesCompromise: true,
	}, nil
}

// e6RollForward is strategy 2: CRES roll-forward firmware update.
func e6RollForward(sh harness.Shard) (E6Row, error) {
	tb, err := NewAttackTestbed(scenario.DeviceSpec{Name: "dut", Seed: sh.Seed})
	if err != nil {
		return E6Row{}, err
	}
	if err := tb.Warm(15 * time.Millisecond); err != nil {
		return E6Row{}, err
	}
	compromise := tb.dev.Now()
	if err := (attack.CodeInjection{}).Launch(tb.tgt); err != nil {
		return E6Row{}, err
	}
	tb.dev.RunFor(5 * time.Millisecond)

	// Stage the fixed release into the inactive slot.
	fixed := boot.BuildSigned("firmware", 2, []byte("fixed release"), tb.dev.Vendor)
	rep := tb.dev.BootReport()
	if err := tb.dev.Updater.Stage(fixed, rep.BootedSlot); err != nil {
		return E6Row{}, err
	}
	// Activation: model the reboot outage explicitly.
	const rebootOutage = 200 * time.Millisecond
	tb.dev.Degrader.StopAll()
	tb.dev.RunFor(rebootOutage)
	if _, err := tb.dev.Updater.Activate(); err != nil {
		return E6Row{}, err
	}
	tb.dev.Degrader.StartAll()
	if err := tb.dev.Recover("app-core", "roll-forward to v2"); err != nil {
		return E6Row{}, err
	}
	return E6Row{
		Strategy:          "cres-rollforward",
		TimeToHealthy:     tb.dev.Now().Sub(compromise),
		CriticalOutage:    rebootOutage,
		RemovesCompromise: true,
	}, nil
}

// e6BaselineReboot is strategy 3: baseline reboot into the same
// firmware.
func e6BaselineReboot(sh harness.Shard) (E6Row, error) {
	tb, err := NewAttackTestbed(scenario.DeviceSpec{Name: "dut", Arch: scenario.ArchBaseline, Seed: sh.Seed})
	if err != nil {
		return E6Row{}, err
	}
	if err := tb.Warm(15 * time.Millisecond); err != nil {
		return E6Row{}, err
	}
	compromise := tb.dev.Now()
	if err := (attack.CodeInjection{}).Launch(tb.tgt); err != nil {
		return E6Row{}, err
	}
	// Operator notices after 20ms and power-cycles (500ms outage).
	tb.dev.RunFor(20 * time.Millisecond)
	rebootDone := false
	if err := tb.dev.Baseline.Reboot("operator power cycle", func() { rebootDone = true }); err != nil {
		return E6Row{}, err
	}
	tb.dev.RunFor(600 * time.Millisecond)
	if !rebootDone {
		return E6Row{}, errors.New("e6: baseline reboot never completed")
	}
	return E6Row{
		Strategy:          "baseline-reboot",
		TimeToHealthy:     tb.dev.Now().Sub(compromise),
		CriticalOutage:    500 * time.Millisecond,
		RemovesCompromise: false, // same vulnerable firmware boots again
	}, nil
}

// E7Row is one boot-chain configuration's outcome under downgrade.
type E7Row struct {
	Config        string
	BootedVersion uint64
	AttackSucceed bool
	Refused       bool
}

// E7Result is the anti-rollback experiment.
type E7Result struct {
	Rows  []E7Row
	Table *report.Table
}

// RunE7Rollback replays the Section IV downgrade attack against four
// boot-chain configurations: hardened, no anti-rollback, no signature
// check, and both weaknesses (the historically attacked configuration).
// Each configuration runs on its own shard.
func RunE7Rollback(seed int64, pool *harness.Pool) (*E7Result, error) {
	configs := []struct {
		name string
		opts boot.Options
	}{
		{"hardened (sig + anti-rollback)", boot.Options{}},
		{"weak: no anti-rollback", boot.Options{WeakNoRollbackProtection: true}},
		{"weak: no signature check", boot.Options{WeakSkipSignature: true}},
		{"weak: neither", boot.Options{WeakNoRollbackProtection: true, WeakSkipSignature: true}},
	}

	rows, err := harness.Map(pool, len(configs), seed, func(sh harness.Shard) (E7Row, error) {
		cfg := configs[sh.Index]
		dev, err := NewDevice(scenario.DeviceSpec{
			Name: "dut", Seed: sh.Seed, Boot: cfg.opts,
			FirmwareVersion: 5, FirmwarePayload: []byte("current v5"),
		}, nil, nil)
		if err != nil {
			return E7Row{}, err
		}
		if _, err := dev.Boot(); err != nil {
			return E7Row{}, err
		}
		// Attacker installs a genuine-but-old v2 image in both slots
		// (out of band: flash reprogramming).
		old := boot.BuildSigned("firmware", 2, []byte("vulnerable v2"), dev.Vendor)
		if err := boot.InstallImage(dev.SoC.Mem, boot.SlotA, old); err != nil {
			return E7Row{}, err
		}
		if err := boot.InstallImage(dev.SoC.Mem, boot.SlotB, old); err != nil {
			return E7Row{}, err
		}
		dev.TPM.Reboot()
		rep, err := dev.Chain.Boot(dev.SoC.Mem, dev.TPM)

		row := E7Row{Config: cfg.name}
		if err != nil {
			row.Refused = true
		} else {
			row.BootedVersion = rep.Image.Version
			row.AttackSucceed = rep.Image.Version < 5
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	res := &E7Result{Rows: rows}

	t := report.NewTable("E7 — Downgrade attack vs boot-chain configuration",
		"Configuration", "Booted version", "Downgrade succeeded", "Boot refused")
	for _, r := range res.Rows {
		v := "-"
		if !r.Refused {
			v = report.U(r.BootedVersion)
		}
		t.AddRow(r.Config, v, yn(r.AttackSucceed), yn(r.Refused))
	}
	res.Table = t
	return res, nil
}
