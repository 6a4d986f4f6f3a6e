package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"cres/internal/store"
)

// fleetBody is the /fleet sweep envelope rendered by one json.Marshal:
// the reference fleetEnvelope's spliced bytes must equal.
type fleetBody struct {
	Schema   string            `json:"schema"`
	Endpoint string            `json:"endpoint"`
	Seed     int64             `json:"seed"`
	Sizes    []int             `json:"sizes"`
	Cells    []json.RawMessage `json:"cells"`
}

// TestFleetEnvelopeMatchesMarshal checks that a /fleet reply is, byte
// for byte, json.Marshal of fleetBody over its cells, whether the cells
// were all computed, all read from the store, or a mix of both. Each
// cell's body is fetched back through /appraise, which serves it from
// the store.
func TestFleetEnvelopeMatchesMarshal(t *testing.T) {
	check := func(t *testing.T, ts *httptest.Server, path, wantCache string, seed int64, sizes []int) {
		t.Helper()
		h, got := mustGet(t, ts, path)
		if c := h.Get("X-Cres-Cache"); c != wantCache {
			t.Fatalf("%s: X-Cres-Cache %q, want %q", path, c, wantCache)
		}
		cells := make([]json.RawMessage, len(sizes))
		for i, n := range sizes {
			h, body := mustGet(t, ts, fmt.Sprintf("/appraise?size=%d&seed=%d", n, seed))
			if c := h.Get("X-Cres-Cache"); c != "hit" {
				t.Fatalf("/appraise?size=%d after %s: X-Cres-Cache %q, want hit", n, path, c)
			}
			cells[i] = bytes.TrimSuffix(body, []byte("\n"))
		}
		want, err := json.Marshal(fleetBody{Schema: BodySchema, Endpoint: "fleet", Seed: seed, Sizes: sizes, Cells: cells})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("%s: spliced envelope differs from json.Marshal of its cells:\n got %.300s\nwant %.300s", path, got, want)
		}
	}
	t.Run("miss-then-hit", func(t *testing.T) {
		_, ts := testServer(t, t.TempDir())
		check(t, ts, "/fleet?sizes=4,64,512&seed=7", "hit=0;miss=3", 7, []int{4, 64, 512})
		check(t, ts, "/fleet?sizes=4,64,512&seed=7", "hit=3;miss=0", 7, []int{4, 64, 512})
	})
	t.Run("mixed", func(t *testing.T) {
		_, ts := testServer(t, t.TempDir())
		mustGet(t, ts, "/appraise?size=64")
		check(t, ts, "/fleet?sizes=4,64", "hit=1;miss=1", DefaultSeed, []int{4, 64})
	})
}

// TestAppraiseHitAllocs gates the /appraise store-hit path through
// Server.Handler: parse the query, lower and digest the spec, Get the
// stored body and write it. A hit builds no fleet engine: 52
// allocations, against 91 for a hit that built one.
func TestAppraiseHitAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, err := New(Config{Store: st, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	req := httptest.NewRequest(http.MethodGet, "/appraise?size=256&seed=7", nil)
	serve := func(want string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cres-Cache") != want {
			t.Fatalf("status %d, X-Cres-Cache %q, want 200 and %q: %s", rec.Code, rec.Header().Get("X-Cres-Cache"), want, rec.Body)
		}
	}
	serve("miss")
	allocs := testing.AllocsPerRun(100, func() { serve("hit") })
	if allocs > 64 {
		t.Fatalf("an /appraise store hit allocates %.0f times, budget 64", allocs)
	}
}
