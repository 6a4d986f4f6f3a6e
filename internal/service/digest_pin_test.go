package service

import (
	"net/url"
	"testing"

	"cres"
	"cres/internal/store"
)

// TestBuiltinScenarioDigestsPinned pins the store digests of the
// built-in E8 fleet workloads — the identities /appraise and /fleet
// cells are stored and resumed under. These digests are an on-disk
// format: a cresd upgraded across commits answers old store records
// only while the canonical config encoding holds. If this test fails,
// the encoding changed; that is allowed, but it orphans every
// existing store (full recompute on next request), so it must be a
// deliberate choice, not a side effect.
func TestBuiltinScenarioDigestsPinned(t *testing.T) {
	pinned := map[int]string{
		4:    "593f04ad4fbd3d67add69a0a9aa8e898",
		64:   "6aba9c220c5ae36f70e766bc3c29be4d",
		256:  "afc38e8cd9e3f62b39665e5634bfdf02",
		512:  "911b7b588080257ec5664b6dff567e7b",
		1024: "c235dc0432422304a76537d2cb88ceb3",
	}
	for size, want := range pinned {
		cf, err := cres.E8FleetSpec(size).Compile()
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		got := store.DigestBytes(cf.Config.AppendCanonical(nil))
		if got != want {
			t.Errorf("E8FleetSpec(%d) digest = %s, want pinned %s — the canonical encoding changed and existing stores are orphaned", size, got, want)
		}
		if len(got) != store.DigestLen {
			t.Errorf("digest length %d, want %d", len(got), store.DigestLen)
		}
	}
}

// TestCampaignDigestsPinned pins the store digests /campaign cells are
// stored and resumed under, for the built-in plans and for one custom
// plan. The digest hashes the JSON of the request's
// []scenario.AttackPlan, so renaming, adding or removing a field of
// AttackPlan or PlanStage moves it and orphans every stored campaign,
// as TestBuiltinScenarioDigestsPinned describes for the fleet cells.
func TestCampaignDigestsPinned(t *testing.T) {
	var s Server // parseCampaign reads no server state
	for query, want := range map[string]string{
		"seeds=3":                             "6e53964fd102b3c003cbb85f1f9af48a",
		"plan=secure-probe@0,log-wipe@10ms*3": "8b4b671c830d2594deb4f69c16ccd908",
	} {
		q, err := url.ParseQuery(query)
		if err != nil {
			t.Fatal(err)
		}
		req, err := s.parseCampaign(nil, q)
		if err != nil {
			t.Fatalf("/campaign?%s: %v", query, err)
		}
		if got := req.cells[0].digest; got != want {
			t.Errorf("/campaign?%s digest = %s, want pinned %s — the plan encoding changed and existing stores are orphaned", query, got, want)
		}
	}
}
