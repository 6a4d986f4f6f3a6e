package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// results parses the result lines of a run's standard output.
func results(t *testing.T, out string) []result {
	t.Helper()
	var rs []result
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), `{"correct"`) {
			var r result
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				t.Fatalf("result line %q: %v", sc.Text(), err)
			}
			rs = append(rs, r)
		}
	}
	return rs
}

// smoke runs every workload at tiny scale and checks that each reports
// the metrics BENCHMARK.json lists for the mode, with their units.
func smoke(t *testing.T, trace string) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	specs := spec.EndToEnd
	if trace == "1" {
		specs = spec.PerLayer
	}
	start := time.Now()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--smoke", "--trace", trace, "--workdir", t.TempDir()}, &stdout, &stderr); code != 0 {
		t.Fatalf("smoke run exited %d:\n%s", code, stderr.String())
	}
	rs := results(t, stdout.String())
	if len(rs) != len(workloads) {
		t.Fatalf("%d result lines, want one per workload:\n%s", len(rs), stdout.String())
	}
	for i, r := range rs {
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct %v, %d attempted, %d failed", workloads[i].name, r.Correct, r.Attempted, r.Failed)
		}
		if len(r.Metrics) != len(specs) {
			t.Errorf("%s: %d metrics, want %d", workloads[i].name, len(r.Metrics), len(specs))
		}
		for _, m := range specs {
			if got, ok := r.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: metric %s = %+v, want unit %s", workloads[i].name, m.Name, got, m.Unit)
			}
		}
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("smoke run took %v, want under 10s", d)
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	smoke(t, "0")
}

func TestSmokeTraced(t *testing.T) {
	smoke(t, "1")
}

func TestBestRate(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9*want }
	for _, c := range []struct {
		name  string
		clock time.Duration
		dones []done
		w     time.Duration
		want  float64
	}{
		{"one after another: the fastest operation's rate", ms(1000),
			[]done{{0, ms(500), 10}, {ms(500), ms(600), 30}, {ms(600), ms(1000), 8}}, ms(100), 300},
		{"in flight together: their rates add", ms(400),
			[]done{{0, ms(200), 10}, {ms(100), ms(300), 10}}, ms(100), 100},
		{"a window spanning two operations averages them", ms(1000),
			[]done{{0, ms(500), 10}, {ms(500), ms(600), 30}, {ms(600), ms(1000), 8}}, ms(500), 76},
		{"an instant operation counts in its window", ms(300),
			[]done{{ms(150), ms(150), 7}}, ms(100), 70},
		{"the last, partial window is left out", ms(250),
			[]done{{0, ms(200), 2}, {ms(200), ms(250), 50}}, ms(100), 10},
		{"less than one window: the whole clock's rate", ms(500),
			[]done{{0, ms(500), 10}}, time.Second, 20},
	} {
		m := &meter{base: c.clock, dones: c.dones}
		if got := m.bestRate(c.w); !near(got, c.want) {
			t.Errorf("%s: best rate %v, want %v", c.name, got, c.want)
		}
	}
	if !math.IsNaN((&meter{}).bestRate(time.Second)) {
		t.Error("no work did not give NaN")
	}

	// The clock stops between end and begin.
	m := &meter{}
	m.begin()
	m.add(time.Now(), 1)
	m.end()
	time.Sleep(20 * time.Millisecond)
	m.begin()
	t0 := time.Now()
	m.add(t0, 1)
	m.end()
	if d := m.dones[1]; d.start >= ms(20) || d.end < d.start {
		t.Errorf("second operation ran %v to %v on the clock: the gap between stretches counted", d.start, d.end)
	}
}

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // descending: percentile must sort
	}
	if got := percentile(xs, 0.5); got != 500 {
		t.Errorf("p50 = %v, want 500", got)
	}
	if got := percentile(xs, 0.99); got != 990 {
		t.Errorf("p99 = %v, want 990", got)
	}
	if got := percentile(xs, 1); got != 1000 {
		t.Errorf("p100 = %v, want 1000", got)
	}
	for _, c := range []struct {
		n    int
		p    float64
		want int
		ok   bool
	}{
		{1000, 0.99, 10, true},
		{999, 0.99, 9, false},
		{200, 0.95, 10, true},
		{199, 0.95, 9, false},
		{100, 0.9, 10, true},
		{0, 0.9, 0, false},
	} {
		if got := beyond(c.n, c.p); got != c.want || tailOK(c.n, c.p) != c.ok {
			t.Errorf("beyond(%d, %v) = %d, tailOK %v; want %d, %v", c.n, c.p, got, tailOK(c.n, c.p), c.want, c.ok)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) || !math.IsNaN(fastest(nil)) {
		t.Error("no samples did not give NaN")
	}
	if got := fastest([]float64{3, 1, 2}); got != 1 {
		t.Errorf("fastest = %v, want 1", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	kid := func(lo, hi int64) span { return span{Parent: 1, Start: lo, End: hi} }
	for _, c := range []struct {
		name string
		kids []span
		want int64
	}{
		{"no children", nil, 100},
		{"one child", []span{kid(10, 30)}, 80},
		{"overlapping children count once", []span{kid(10, 30), kid(20, 50), kid(60, 70)}, 50},
		{"children clipped to the parent", []span{kid(-20, 10), kid(90, 120)}, 80},
		{"child outside the parent", []span{kid(200, 300)}, 100},
		{"nested and touching", []span{kid(0, 50), kid(10, 20), kid(50, 100)}, 0},
	} {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

// streamKey renders a request's observable inputs.
func streamKey(q request) string {
	return q.class + " " + q.method + " " + q.path + " " + string(q.body)
}

func TestSameSeedSameStream(t *testing.T) {
	cp := coldParamsFor(false)
	sp := storeParamsFor(false)
	stream := func(seed int64) []string {
		var out []string
		keys := storeKeys(sp, seed)
		for _, q := range keys {
			out = append(out, streamKey(q))
		}
		for i := 0; i < 2000; i++ {
			out = append(out, streamKey(cp.request(seed, i)), streamKey(storeRequest(seed, keys, i)))
		}
		return out
	}
	a, b, c := stream(7), stream(7), stream(8)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed generated different request streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds generated the same request stream")
	}
	if newBusTraffic(7) != newBusTraffic(7) {
		t.Error("the same seed generated different bus traffic")
	}
	if cp.request(7, 0).seed == cp.request(7, 1).seed {
		t.Error("two cold requests share a fleet seed")
	}
}

// TestStreamMix checks that the streams send the scripts' requests with
// equal weight.
func TestStreamMix(t *testing.T) {
	cp := coldParamsFor(false)
	sp := storeParamsFor(false)
	keys := storeKeys(sp, 3)
	if want := sp.Seeds * 3; len(keys) != want {
		t.Fatalf("%d store keys, want %d", len(keys), want)
	}
	cold, stored := map[string]int{}, map[string]int{}
	const n = 30000
	for i := 0; i < n; i++ {
		cold[cp.request(3, i).class]++
		q := storeRequest(3, keys, i)
		stored[q.class+" "+strings.SplitN(q.path, "&", 2)[0]]++
	}
	for c, want := range map[string]int{"get256": 50, "get1024": 50} {
		if got := 100 * cold[c] / n; got < want-2 || got > want+2 {
			t.Errorf("svc-cold %s share %d%%, want %d%%", c, got, want)
		}
	}
	for c, want := range map[string]int{
		"hit /appraise?size=256": 33, "hit /appraise?size=1024": 33, "fleet /fleet?sizes=4,64,512": 33,
	} {
		if got := 100 * stored[c] / n; got < want-2 || got > want+2 {
			t.Errorf("svc-store %q share %d%%, want %d%%", c, got, want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	var spec benchSpec
	if err := json.Unmarshal([]byte(`{
		"workloads": [{"name": "w"}],
		"end_to_end": [
			{"name": "throughput", "better": "higher", "bound": 0.1},
			{"name": "latency", "better": "lower", "bound": 0.1},
			{"name": "setup_s", "better": "lower", "bound": 0.25}
		]}`), &spec); err != nil {
		t.Fatal(err)
	}
	steady := func(m float64) []float64 { return []float64{m * 0.99, m, m, m * 1.01} }
	noisy := func(m float64) []float64 { return []float64{m * 0.5, m, m, m * 1.5} }
	for _, c := range []struct {
		name string
		a, b map[string][]float64
		want map[string]string
	}{
		{"unchanged",
			map[string][]float64{"throughput": steady(100), "latency": steady(10), "setup_s": steady(1)},
			map[string][]float64{"throughput": steady(100), "latency": steady(10), "setup_s": steady(1)},
			map[string]string{"throughput": "", "latency": "", "setup_s": ""}},
		{"worse beyond the bound, in each direction",
			map[string][]float64{"throughput": steady(100), "latency": steady(10), "setup_s": steady(1)},
			map[string][]float64{"throughput": steady(85), "latency": steady(12), "setup_s": steady(1.3)},
			map[string]string{"throughput": "REGRESSION", "latency": "REGRESSION", "setup_s": "REGRESSION"}},
		{"better by any amount, or worse within the bound",
			map[string][]float64{"throughput": steady(100), "latency": steady(10), "setup_s": steady(1)},
			map[string][]float64{"throughput": steady(150), "latency": steady(10.9), "setup_s": steady(0.5)},
			map[string]string{"throughput": "", "latency": "", "setup_s": ""}},
		{"spread beyond the bound, except set-up time",
			map[string][]float64{"throughput": noisy(100), "latency": steady(10), "setup_s": noisy(1)},
			map[string][]float64{"throughput": steady(100), "latency": noisy(10), "setup_s": steady(1)},
			map[string]string{"throughput": "NOISY", "latency": "NOISY", "setup_s": ""}},
	} {
		vs := compareSets(spec, runSet{"w": c.a}, runSet{"w": c.b})
		if len(vs) != len(c.want) {
			t.Fatalf("%s: %d verdicts, want %d", c.name, len(vs), len(c.want))
		}
		for _, v := range vs {
			if v.flag != c.want[v.metric] {
				t.Errorf("%s: %s flagged %q (worse %+.3f, spreads %.3f %.3f), want %q",
					c.name, v.metric, v.flag, v.worse, v.spreadA, v.spreadB, c.want[v.metric])
			}
		}
	}
}

func TestReadRuns(t *testing.T) {
	out := `build noise
{"provenance":{"workload":"w","seed":1}}
{"correct":true,"attempted":3,"failed":0,"metrics":{"m":{"value":1.5,"unit":"s"}}}
{"provenance":{"workload":"w","seed":2}}
{"correct":true,"attempted":3,"failed":0,"metrics":{"m":{"value":2.5,"unit":"s"}}}
`
	set, err := readRuns(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if got := set["w"]["m"]; !reflect.DeepEqual(got, []float64{1.5, 2.5}) {
		t.Errorf("values %v, want [1.5 2.5]", got)
	}
	if _, err := readRuns(strings.NewReader(`{"correct":true,"metrics":{}}`)); err == nil {
		t.Error("a result line without provenance was accepted")
	}
}
