package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"cres/internal/store"
)

// BenchmarkServeAppraise measures warm appraisal serving: the cell is
// computed once, then every iteration is a full HTTP round trip
// answered from the store — the service-shell overhead the resident
// mode exists to minimize. Requests/sec lands in the benchmark
// output; the SVC registry experiment is what feeds BENCH_perf.json.
func BenchmarkServeAppraise(b *testing.B) {
	benchServeHit(b, "/appraise?size=1024&seed=7")
}

// BenchmarkServeFleetHit measures a warm sweep: every iteration is a
// full HTTP round trip whose three cells are read from the store and
// spliced into the /fleet envelope.
func BenchmarkServeFleetHit(b *testing.B) {
	benchServeHit(b, "/fleet?sizes=4,64,512&seed=7")
}

// benchServeHit computes path's cells once, then times repeats of the
// request, all store hits, and reports requests/sec.
func benchServeHit(b *testing.B, path string) {
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	srv, err := New(Config{Store: st, Quick: true, Parallel: 1})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	warm, err := client.Get(ts.URL + path)
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, warm.Body)
	warm.Body.Close()
	if warm.StatusCode != http.StatusOK {
		b.Fatalf("warm request: %d", warm.StatusCode)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}
