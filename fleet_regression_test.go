package cres

import (
	"fmt"
	"testing"
)

// This file pins the stringly-identity → index-identity migration of
// the E8 fleet. Before the streaming engine, devices were named
// "device-%03d" and the verifier classified appraisals by parsing the
// index back out of the name — a round-trip that once shipped with an
// Sscanf "%03d" width that silently truncated "device-1234" to index
// 123 and misclassified every device past the first thousand. The
// fleet engine's identity IS the global index, so that bug class is
// unrepresentable; these tests keep the old and new classifications
// provably equivalent (and keep the old bug visibly a bug).

// The pre-streaming classification pair, replicated verbatim.

func oldFleetDeviceName(i int) string { return fmt.Sprintf("device-%03d", i) }

func oldIsTamperedName(name string) bool {
	var i int
	if _, err := fmt.Sscanf(name, "device-%d", &i); err != nil {
		return false
	}
	return i%8 == 3
}

// The shipped-bug variant: %03d as a scan verb is a maximum field
// width, truncating wide indices.
func buggyIsTamperedName(name string) bool {
	var i int
	if _, err := fmt.Sscanf(name, "device-%03d", &i); err != nil {
		return false
	}
	return i%8 == 3
}

// TestFleetClassificationOldVsNew runs every index of the 10,240-device
// fleet (the largest pre-streaming sweep point) through both
// identities: the old name round-trip and the fleet engine's
// index-based tamper rule. They must agree exactly — including the
// four-and-five-digit indices the %03d bug used to misclassify.
func TestFleetClassificationOldVsNew(t *testing.T) {
	const devices = 10_240
	cf, err := E8FleetSpec(devices).Compile()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := cf.Engine(7)
	if err != nil {
		t.Fatal(err)
	}
	diverged := 0
	for i := 0; i < devices; i++ {
		oldClass := oldIsTamperedName(oldFleetDeviceName(i))
		newClass := eng.Tampered(i)
		if oldClass != newClass {
			t.Errorf("device %d: old classification %v, new %v", i, oldClass, newClass)
		}
		if buggyIsTamperedName(oldFleetDeviceName(i)) != newClass {
			diverged++
		}
	}
	// The buggy width-truncating parse must still be provably wrong for
	// wide indices — if it ever agrees everywhere, this regression test
	// has stopped guarding anything.
	if diverged == 0 {
		t.Fatal("the width-truncating parse agrees with index identity at 10240 devices; the regression fixture is broken")
	}
	t.Logf("width-truncating parse misclassifies %d of %d devices; index identity is immune", diverged, devices)
}

// TestFleetTamperRuleMatchesSummaryCounts cross-checks the rule against
// the engine's own run at the pre-streaming sweep point: the summary's
// tampered count must equal the rule's census, and every tampered
// device must be caught.
func TestFleetTamperRuleMatchesSummaryCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-device fleet run")
	}
	const devices = 10_240
	res, err := RunE8FleetAttestation([]int{devices}, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < devices; i++ {
		if i%8 == 3 {
			want++
		}
	}
	s := res.Rows[0].Summary
	if s.Tampered != want {
		t.Fatalf("summary counts %d tampered, rule says %d", s.Tampered, want)
	}
	if s.Caught != want || s.FalseAlarms != 0 {
		t.Fatalf("caught %d of %d, false alarms %d", s.Caught, want, s.FalseAlarms)
	}
}
