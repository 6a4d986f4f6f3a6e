package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"cres"
	"cres/internal/attest"
	"cres/internal/cryptoutil"
	"cres/internal/fleet"
	"cres/internal/harness"
	"cres/internal/scenario"
	"cres/internal/tpm"
)

// fleet-sweep appraises one E8 reference fleet over and over through
// fleet.(*Engine).RunParallel on a pool of cfg.workers. One operation
// is one pass over the fleet and its work is the fleet's devices. The
// fleet is split into more shards than workers, so the pool's fan-out
// is exercised, and small enough that a pass is short: the fastest of a
// run's several hundred passes then lands in one of a noisy host's
// quiet spells more reliably than passes twice as long do (README.md).

// fleetParams sizes the fleet-sweep workload.
type fleetParams struct {
	Size      int `json:"size"`
	ShardSize int `json:"shard_size"`
	BatchSize int `json:"batch_size"`
	// Setups is how many times the set-up (compile the spec, build the
	// engine) runs, spread over the run; setup_s is their median.
	Setups int `json:"setups"`
	// ReplayDevices is how many devices the traced run's crypto replay
	// drives through the public attest/cryptoutil calls.
	ReplayDevices int `json:"replay_devices"`
	// TailPercentile is the pass-time percentile the summary prints.
	TailPercentile float64 `json:"tail_percentile"`
}

func fleetParamsFor(smoke bool) fleetParams {
	if smoke {
		return fleetParams{Size: 512, ShardSize: 128, BatchSize: 64, Setups: 2, ReplayDevices: 128, TailPercentile: 0.9}
	}
	return fleetParams{Size: 2048, ShardSize: 256, BatchSize: 256, Setups: 8, ReplayDevices: 2048, TailPercentile: 0.9}
}

// nonceLen matches the fleet engine's challenge-nonce size.
const nonceLen = 16

// fleetRig is one set-up fleet: the compiled spec, the engine at the
// workload seed and the canonical summary bytes every pass must repeat.
type fleetRig struct {
	cf  *scenario.CompiledFleet
	eng *fleet.Engine
	ref []byte
}

func (p fleetParams) spec() scenario.FleetSpec {
	spec := cres.E8FleetSpec(p.Size)
	spec.ShardSize = p.ShardSize
	spec.BatchSize = p.BatchSize
	return spec
}

// setUpFleet is the fleet's set-up: it compiles the spec and builds
// the engine.
func setUpFleet(p fleetParams, seed int64) (*fleetRig, error) {
	cf, err := p.spec().Compile()
	if err != nil {
		return nil, err
	}
	eng, err := cf.Engine(seed)
	if err != nil {
		return nil, err
	}
	return &fleetRig{cf: cf, eng: eng}, nil
}

// warm runs the first pass, which lets lazy initialisation finish, and
// keeps its summary as the reference every later pass must repeat.
func (rig *fleetRig) warm(pool *harness.Pool) error {
	sum, err := rig.eng.RunParallel(pool)
	if err != nil {
		return err
	}
	if err := checkSummary(sum, rig.cf.Spec); err != nil {
		return err
	}
	rig.ref = sum.AppendCanonical(nil)
	return nil
}

// checkSummary checks one appraised fleet: every device appraised,
// every tampered device caught, no false alarm, and for a fleet that
// tampers every TamperEvery-th device, such as the E8 reference fleet,
// exactly those devices tampered.
func checkSummary(s fleet.Summary, spec scenario.FleetSpec) error {
	if s.Devices != spec.Size || s.Caught != s.Tampered || s.FalseAlarms != 0 {
		return fmt.Errorf("fleet summary: devices %d tampered %d caught %d false alarms %d, want %d devices, all caught, none false",
			s.Devices, s.Tampered, s.Caught, s.FalseAlarms, spec.Size)
	}
	if k := spec.TamperEvery; k > 0 {
		want := max(0, (spec.Size-spec.TamperOffset+k-1)/k)
		if s.Tampered != want {
			return fmt.Errorf("fleet summary: tampered %d, want %d", s.Tampered, want)
		}
	}
	return nil
}

// checkPass checks one fleet-sweep pass against the reference pass,
// whose canonical summary bytes it must repeat.
func (rig *fleetRig) checkPass(sum fleet.Summary, err error) error {
	if err != nil {
		return err
	}
	if err := checkSummary(sum, rig.cf.Spec); err != nil {
		return err
	}
	if !bytes.Equal(sum.AppendCanonical(nil), rig.ref) {
		return fmt.Errorf("fleet summary: canonical bytes differ from the reference pass")
	}
	return nil
}

func runFleet(cfg config, tr *tracer) (*report, error) {
	p := fleetParamsFor(cfg.smoke)
	pool := harness.NewPool(cfg.workers)
	rep := newReport(p)

	var setupS []float64
	setUp := func() (*fleetRig, error) {
		t0 := time.Now()
		r, err := setUpFleet(p, cfg.seed)
		setupS = append(setupS, time.Since(t0).Seconds())
		return r, err
	}
	rig, err := setUp()
	if err == nil {
		err = rig.warm(pool)
	}
	if err != nil {
		return nil, err
	}

	measured, setups := cfg.seconds, p.Setups
	if tr != nil {
		measured, setups = measured/2, 1
	}
	var passNs []float64
	var work meter
	err = spaced(measured, setups, func(_ int, d time.Duration) {
		passNs = append(passNs, fleetPasses(rig, p, pool, d, &work, rep)...)
	}, func() error {
		_, err := setUp()
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.measured(passNs, p.TailPercentile, &work, setupS)

	if tr != nil {
		if err := fleetLayers(rig, p, cfg, pool, measured, tr, rep, fastest(passNs)); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// fleetPasses runs untraced RunParallel passes for d, adding each
// pass's devices to work, and returns each pass's wall time in
// nanoseconds.
func fleetPasses(rig *fleetRig, p fleetParams, pool *harness.Pool, d time.Duration, work *meter, rep *report) []float64 {
	var passNs []float64
	work.begin()
	defer work.end()
	deadline := time.Now().Add(d)
	for len(passNs) == 0 || time.Now().Before(deadline) {
		t0 := time.Now()
		sum, err := rig.eng.RunParallel(pool)
		passNs = append(passNs, float64(time.Since(t0).Nanoseconds()))
		work.add(t0, float64(p.Size))
		rep.check(rig.checkPass(sum, err))
	}
	return passNs
}

// fleetLayers is the traced half of fleet-sweep: the same passes
// re-driven as harness.Map over RunShard plus Summary.Merge with a span
// per call, then a crypto replay of the engine's per-epoch call shape.
func fleetLayers(rig *fleetRig, p fleetParams, cfg config, pool *harness.Pool, d time.Duration, tr *tracer, rep *report, untracedMin float64) error {
	var passNs, skews, mergeNs []float64
	var shardTotal, busyDen float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	devices := 0
	deadline := time.Now().Add(d)
	for len(passNs) == 0 || time.Now().Before(deadline) {
		type shardOut struct {
			sum  fleet.Summary
			span span
		}
		pass := tr.start("fleet.pass", 0)
		outs, err := harness.Map(pool, rig.eng.NumShards(), cfg.seed, func(sh harness.Shard) (shardOut, error) {
			s := tr.start("fleet.run_shard", pass.ID)
			out, err := rig.eng.RunShard(sh.Index)
			return shardOut{out, tr.finish(s)}, err
		})
		m := tr.start("fleet.merge", pass.ID)
		var merged fleet.Summary
		for _, o := range outs {
			merged = merged.Merge(o.sum)
		}
		m = tr.finish(m)
		pass = tr.finish(pass)
		rep.check(rig.checkPass(merged, err))
		devices += p.Size

		passNs = append(passNs, float64(pass.dur()))
		mergeNs = append(mergeNs, float64(m.dur()))
		busyDen += float64(cfg.workers) * float64(pass.dur())
		var shards []float64
		for _, o := range outs {
			shards = append(shards, float64(o.span.dur()))
		}
		shardTotal += sum(shards)
		skews = append(skews, percentile(shards, 1)/percentile(shards, 0.5))
	}
	runtime.ReadMemStats(&ms1)

	ct, err := cryptoReplay(rig.cf, cfg.seed, p.ReplayDevices)
	if err != nil {
		return err
	}
	compileNs, engineNs, err := timeCompile(p.spec(), cfg.seed, 20)
	if err != nil {
		return err
	}

	perDev := func(ns float64, n int) float64 { return ns / float64(n) / 1e3 }
	runShard := perDev(shardTotal, devices)
	l := rep.layers
	l["fleet.run_shard_us_per_device"] = runShard
	l["fleet.shard_skew"] = percentile(skews, 0.5)
	l["fleet.merge_us"] = percentile(mergeNs, 0.5) / 1e3
	l["fleet.allocs_per_device"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(devices)
	l["harness.pool_busy_share"] = shardTotal / busyDen
	l["cryptoutil.signer_init_us_per_device"] = perDev(float64(ct.init), ct.devices)
	l["attest.sign_us_per_device"] = perDev(float64(ct.sign), ct.devices)
	l["attest.enqueue_us_per_device"] = perDev(float64(ct.enqueue), ct.devices)
	l["cryptoutil.flush_us_per_device"] = perDev(float64(ct.flush), ct.devices)
	l["fleet.unaccounted_us_per_device"] = runShard - perDev(float64(ct.init+ct.sign+ct.enqueue+ct.flush), ct.devices)
	l["scenario.compile_us"] = compileNs / 1e3
	l["fleet.engine_new_us"] = engineNs / 1e3
	l["trace.overhead_share"] = fastest(passNs)/untracedMin - 1
	return nil
}

// timeCompile returns the median time of FleetSpec.Compile and of
// CompiledFleet.Engine over n calls each, in nanoseconds.
func timeCompile(spec scenario.FleetSpec, seed int64, n int) (compileNs, engineNs float64, err error) {
	var cs, es []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		cf, err := spec.Compile()
		t1 := time.Now()
		if err != nil {
			return 0, 0, err
		}
		if _, err := cf.Engine(seed + int64(i)); err != nil {
			return 0, 0, err
		}
		cs = append(cs, float64(t1.Sub(t0)))
		es = append(es, float64(time.Since(t1)))
	}
	return percentile(cs, 0.5), percentile(es, 0.5), nil
}

// cryptoTimes is the crypto replay's time per call family.
type cryptoTimes struct {
	init, sign, enqueue, flush time.Duration
	devices                    int
}

// cryptoReplay drives devices through the calls the engine makes per
// provisioning epoch — key derivation and VartimeSigner.Init, then per
// device BatchAppraiser.SignFast and Enqueue, then one
// BatchVerifier.Flush — timing each family and checking every verdict:
// each signature verifies, healthy boots appraise trusted and implanted
// ones do not.
func cryptoReplay(cf *scenario.CompiledFleet, seed int64, devices int) (cryptoTimes, error) {
	c := cf.Config
	allowed := map[cryptoutil.Digest]bool{fleet.MeasurementROM: true, fleet.MeasurementPolicy: true}
	for _, sh := range c.Shares {
		allowed[sh.Firmware] = true
	}
	policy := &attest.Policy{AllowedMeasurements: allowed}
	compile := func(fw cryptoutil.Digest, desc string) (*attest.BatchAppraiser, error) {
		ca, err := policy.CompileAppraisal([]tpm.LogEntry{
			{PCR: tpm.PCRBootROM, Measurement: fleet.MeasurementROM, Desc: "rom"},
			{PCR: tpm.PCRFirmware, Measurement: fw, Desc: desc},
			{PCR: tpm.PCRPolicy, Measurement: fleet.MeasurementPolicy, Desc: "policy"},
		}, attest.PCRSelection, nonceLen)
		if err != nil {
			return nil, err
		}
		return ca.Batch(), nil
	}
	healthy, err := compile(c.Shares[0].Firmware, c.Shares[0].FirmwareDesc)
	if err != nil {
		return cryptoTimes{}, err
	}
	implanted, err := compile(fleet.MeasurementImplant, "???")
	if err != nil {
		return cryptoTimes{}, err
	}
	variants := []*attest.BatchAppraiser{healthy, implanted}

	entropy := cryptoutil.NewDeterministicEntropy(nil)
	coeff := cryptoutil.NewDeterministicEntropy(nil)
	bv := cryptoutil.NewBatchVerifier(coeff)
	var signer cryptoutil.VartimeSigner
	var seedBuf, nonce [nonceLen]byte
	var keySeed [32]byte
	fill := func(buf []byte, root int64, i int) {
		binary.BigEndian.PutUint64(buf[:8], uint64(harness.ShardSeed(root, 2*i)))
		binary.BigEndian.PutUint64(buf[8:], uint64(harness.ShardSeed(root, 2*i+1)))
	}
	keyRoot, coeffRoot, nonceRoot := harness.ShardSeed(seed, -1), harness.ShardSeed(seed, -2), harness.ShardSeed(seed, -3)

	ct := cryptoTimes{devices: devices}
	queued := make([]int, 0, c.BatchSize)
	for lo := 0; lo < devices; lo += c.BatchSize {
		hi := min(lo+c.BatchSize, devices)
		t0 := time.Now()
		fill(seedBuf[:], keyRoot, lo)
		entropy.Reset(seedBuf[:])
		if _, err := entropy.Read(keySeed[:]); err != nil {
			return cryptoTimes{}, err
		}
		signer.Init(keySeed[:])
		aik := signer.Public()
		fill(seedBuf[:], coeffRoot, lo)
		coeff.Reset(seedBuf[:])
		bv.Reset(coeff)
		ct.init += time.Since(t0)

		queued = queued[:0]
		for i := lo; i < hi; i++ {
			v := 0
			if i%c.TamperEvery == c.TamperOffset {
				v = 1
			}
			fill(nonce[:], nonceRoot, i)
			t0 := time.Now()
			sig, hint, err := variants[v].SignFast(&signer, nonce[:])
			t1 := time.Now()
			if err == nil {
				err = variants[v].Enqueue(bv, aik, nonce[:], sig[:], &hint)
			}
			ct.sign += t1.Sub(t0)
			ct.enqueue += time.Since(t1)
			if err != nil {
				return cryptoTimes{}, fmt.Errorf("crypto replay: device %d: %w", i, err)
			}
			queued = append(queued, v)
		}
		t0 = time.Now()
		ok := bv.Flush()
		ct.flush += time.Since(t0)
		for j, v := range queued {
			if !ok[j] {
				return cryptoTimes{}, fmt.Errorf("crypto replay: device %d: honest signature rejected", lo+j)
			}
			if trusted := variants[v].Resolve(true) == nil; trusted != (v == 0) {
				return cryptoTimes{}, fmt.Errorf("crypto replay: device %d: trusted=%v for variant %d", lo+j, trusted, v)
			}
		}
	}
	return ct, nil
}
