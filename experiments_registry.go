package cres

import (
	"fmt"
	"time"

	"cres/internal/harness"
)

// This file registers every experiment with the harness registry, in
// print order. The benchmark CLI iterates the registry instead of
// owning one hand-rolled call per experiment; each runner translates
// the shared harness.Context (seed, quick, stable, pool) into the
// experiment's own knobs and hands back rendered blocks plus the
// result's metrics, which cresbench -json records and gates nothing on.

// metricsReporter is a result that reports metrics (E8, E9, E15);
// timedRunner copies them into Outcome.Metrics.
type metricsReporter interface {
	Metrics() []harness.Metric
}

// timedRunner builds a registry runner that times compute and renders
// outside the timing window, so Outcome.NsPerOp tracks the simulator,
// not the string formatting.
func timedRunner[T any](compute func(*harness.Context) (T, error), render func(*harness.Context, T) []string) harness.Runner {
	return func(ctx *harness.Context) (*harness.Outcome, error) {
		start := time.Now()
		r, err := compute(ctx)
		if err != nil {
			return nil, err
		}
		elapsed := float64(time.Since(start).Nanoseconds())
		out := &harness.Outcome{Blocks: render(ctx, r), NsPerOp: elapsed}
		if m, ok := any(r).(metricsReporter); ok {
			out.Metrics = m.Metrics()
		}
		return out, nil
	}
}

func init() {
	harness.Register("E2", timedRunner(
		func(*harness.Context) (*E2Result, error) { return RunE2Figure1(), nil },
		func(_ *harness.Context, r *E2Result) []string {
			return []string{r.Rendered, r.Association.Render()}
		}))
	harness.Register("E1", timedRunner(
		func(*harness.Context) (*E1Result, error) { return RunE1TableI(), nil },
		func(_ *harness.Context, r *E1Result) []string {
			return []string{
				r.Table.Render(),
				r.CoverageTable.Render(),
				fmt.Sprintf("Derived research gaps: %v\n", r.Gaps),
			}
		}))
	harness.Register("E3", timedRunner(
		func(ctx *harness.Context) (*E3Result, error) {
			return RunE3DetectionMatrix(ctx.Seed, ctx.Pool)
		},
		func(_ *harness.Context, r *E3Result) []string { return []string{r.Table.Render()} }))
	harness.Register("E3b", timedRunner(
		func(ctx *harness.Context) (*E3bResult, error) {
			return RunE3bDetectionAblation(ctx.Seed, ctx.Pool)
		},
		func(_ *harness.Context, r *E3bResult) []string { return []string{r.Table.Render()} }))
	harness.Register("E4", timedRunner(
		func(ctx *harness.Context) (*E4Result, error) {
			return RunE4EvidenceContinuity(ctx.Seed, ctx.Pool)
		},
		func(_ *harness.Context, r *E4Result) []string { return []string{r.Table.Render()} }))
	harness.Register("E5", timedRunner(
		func(ctx *harness.Context) (*E5Result, error) {
			window := 600 * time.Millisecond
			if ctx.Quick {
				window = 300 * time.Millisecond
			}
			return RunE5GracefulDegradation(ctx.Seed, window, ctx.Pool)
		},
		func(_ *harness.Context, r *E5Result) []string { return []string{r.Table.Render()} }))
	harness.Register("E6", timedRunner(
		func(ctx *harness.Context) (*E6Result, error) {
			return RunE6Recovery(ctx.Seed, ctx.Pool)
		},
		func(_ *harness.Context, r *E6Result) []string { return []string{r.Table.Render()} }))
	harness.Register("E7", timedRunner(
		func(ctx *harness.Context) (*E7Result, error) {
			return RunE7Rollback(ctx.Seed, ctx.Pool)
		},
		func(_ *harness.Context, r *E7Result) []string { return []string{r.Table.Render()} }))
	harness.Register("E8", timedRunner(
		func(ctx *harness.Context) (*E8Result, error) {
			return RunE8FleetAttestation(FleetSizes(ctx.Quick), ctx.Seed, ctx.Pool)
		},
		func(_ *harness.Context, r *E8Result) []string {
			return []string{r.Table.Render(), r.Series.Render()}
		}))
	harness.Register("E9", timedRunner(
		func(ctx *harness.Context) (*E9Result, error) {
			txs := 200_000
			if ctx.Quick {
				txs = 50_000
			}
			return RunE9MonitorOverhead(txs)
		},
		func(ctx *harness.Context, r *E9Result) []string {
			if ctx.Stable {
				// Host-clock cells would defeat the byte-identity diff
				// the determinism gate runs; mask them.
				return []string{r.RenderStable()}
			}
			return []string{r.Table.Render()}
		}))
	harness.Register("E10", timedRunner(
		func(ctx *harness.Context) (*E10Result, error) {
			return RunE10CovertChannel(ctx.Seed, ctx.Pool)
		},
		func(_ *harness.Context, r *E10Result) []string {
			return []string{r.Table.Render(), r.Series.Render()}
		}))
	harness.Register("E11", timedRunner(
		func(ctx *harness.Context) (*E11Result, error) {
			return RunE11PointerAuth(ctx.Seed, ctx.Pool)
		},
		func(_ *harness.Context, r *E11Result) []string { return []string{r.Table.Render()} }))
	harness.Register("E13", timedRunner(
		func(ctx *harness.Context) (*E13Result, error) {
			return RunE13WormResilience(E13Config{RootSeed: ctx.Seed, Quick: ctx.Quick}, ctx.Pool)
		},
		func(_ *harness.Context, r *E13Result) []string { return []string{r.Table.Render()} }))
	harness.Register("E14", timedRunner(
		func(ctx *harness.Context) (*E14Result, error) {
			return RunE14FaultRecovery(E14Config{RootSeed: ctx.Seed, Quick: ctx.Quick}, ctx.Pool)
		},
		func(_ *harness.Context, r *E14Result) []string { return []string{r.Table.Render()} }))
	harness.Register("E15", timedRunner(
		func(ctx *harness.Context) (*E15Result, error) {
			return RunE15Hierarchy(E15Config{RootSeed: ctx.Seed, Quick: ctx.Quick}, ctx.Pool)
		},
		func(_ *harness.Context, r *E15Result) []string { return []string{r.Table.Render()} }))
	harness.Register("BV", timedRunner(
		func(ctx *harness.Context) (*BVResult, error) { return RunBVBatchVerify(ctx.Seed) },
		func(ctx *harness.Context, r *BVResult) []string {
			if ctx.Stable {
				// ns/sig cells are host-clock readings; mask them so the
				// determinism gate's byte-compare holds.
				return []string{r.RenderStable()}
			}
			return []string{r.Table.Render()}
		}))
}
