package fleet

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"cres/internal/attest"
	"cres/internal/cryptoutil"
	"cres/internal/harness"
	"cres/internal/tpm"
)

// Engine-wide defaults.
const (
	// DefaultBatchSize is how many devices share one provisioning
	// epoch. A running shard holds at most max(BatchSize, 4096) devices
	// in memory, never O(fleet).
	DefaultBatchSize = 256
	// DefaultShardSize is how many devices one verifier shard appraises.
	// The shard split is a function of fleet size only — never of the
	// worker pool; the split inside a shard may follow the pool, because
	// it only regroups exact curve sums — so output is identical at any
	// parallelism.
	DefaultShardSize = 4096
	// DefaultSampleK is the anomaly-sample capacity per summary.
	DefaultSampleK = 8
)

// The virtual-time model's constants.
const (
	// Latency is the modelled one-way network latency.
	Latency = 500 * time.Microsecond
	// Jitter is the modelled maximum per-device round-trip jitter.
	Jitter = 200 * time.Microsecond
	// DispatchCost is the verifier's per-challenge dispatch cost.
	DispatchCost = 2 * time.Microsecond
	// AppraiseCost is the verifier's per-quote appraisal cost.
	AppraiseCost = 10 * time.Microsecond
)

// Canonical fleet measurements. Healthy devices extend the ROM, their
// share's firmware and the policy; tampered devices boot the implant
// instead of their share's firmware.
var (
	MeasurementROM     = cryptoutil.Sum([]byte("fleet boot rom"))
	MeasurementPolicy  = cryptoutil.Sum([]byte("fleet policy v1"))
	MeasurementImplant = cryptoutil.Sum([]byte("implant"))
)

// Purpose constants separate the per-index derivation streams: every
// per-device draw is harness.ShardSeed(ShardSeed(Seed, purpose), index),
// a pure function of (fleet seed, purpose, global index). Batch and
// shard boundaries can never reshuffle a device's fate.
const (
	purposeMix        = -(iota + 2) // share assignment
	purposeTamper                   // tamper-rate draw
	purposeJitter                   // round-trip jitter
	purposeNonce                    // challenge nonces (two draws per device)
	purposeEntropy                  // device TPM entropy (two draws per device)
	purposeSample                   // anomaly-sample priority
	purposeBatchCoeff               // unused; keeps the values below fixed
	purposeNodeKey                  // hierarchy node signing keys (two draws per node)
	purposeTreeCoeff                // hierarchy batch-verify coefficients (two draws per node)
)

// Share is one slice of the fleet's device mix.
type Share struct {
	// Label names the share (the device spec it came from).
	Label string
	// Firmware is the measurement healthy devices of this share extend
	// into the firmware PCR; it joins the verifier's allowlist.
	Firmware cryptoutil.Digest
	// FirmwareDesc is the event-log description of the firmware.
	FirmwareDesc string
	// Fraction is the share's device-mix fraction; all fractions must
	// sum to 1.
	Fraction float64
	// TamperRate is the probability a device of this share boots the
	// implant. Exclusive with Config.TamperEvery.
	TamperRate float64
}

// Config describes a fleet run. The zero value of every field except
// Size and Shares selects a default.
type Config struct {
	// Seed is the fleet root seed every per-device draw derives from.
	Seed int64
	// Size is the fleet's device count (required).
	Size int
	// Shares is the device mix (required, fractions summing to 1).
	Shares []Share
	// TamperEvery > 0 selects the deterministic tamper rule: device i is
	// tampered iff i % TamperEvery == TamperOffset. Exclusive with
	// per-share TamperRates.
	TamperEvery int
	// TamperOffset is the deterministic rule's residue.
	TamperOffset int
	// BatchSize bounds shard memory; ShardSize splits the fleet across
	// parallel verifier shards.
	BatchSize, ShardSize int
	// SampleK is the anomaly-sample capacity.
	SampleK int
}

// Normalize validates the config and fills defaults, returning the
// normalized copy. It is the whole of New's validation: a config that
// normalizes builds an engine.
func (c Config) Normalize() (Config, error) {
	if c.Size <= 0 {
		return c, fmt.Errorf("fleet: size %d, want > 0", c.Size)
	}
	if len(c.Shares) == 0 {
		return c, fmt.Errorf("fleet: no device-mix shares")
	}
	sum := 0.0
	ratey := false
	for i, sh := range c.Shares {
		if math.IsNaN(sh.Fraction) || math.IsInf(sh.Fraction, 0) || sh.Fraction <= 0 {
			return c, fmt.Errorf("fleet: share %d (%s): fraction %v, want finite > 0", i, sh.Label, sh.Fraction)
		}
		if math.IsNaN(sh.TamperRate) || math.IsInf(sh.TamperRate, 0) || sh.TamperRate < 0 || sh.TamperRate > 1 {
			return c, fmt.Errorf("fleet: share %d (%s): tamper rate %v, want in [0, 1]", i, sh.Label, sh.TamperRate)
		}
		if sh.Firmware.IsZero() {
			return c, fmt.Errorf("fleet: share %d (%s): zero firmware measurement", i, sh.Label)
		}
		sum += sh.Fraction
		ratey = ratey || sh.TamperRate > 0
	}
	if math.Abs(sum-1) > 1e-6 {
		return c, fmt.Errorf("fleet: device-mix fractions sum to %v, want 1", sum)
	}
	if c.TamperEvery < 0 {
		return c, fmt.Errorf("fleet: tamper-every %d, want >= 0", c.TamperEvery)
	}
	if c.TamperEvery > 0 {
		if ratey {
			return c, fmt.Errorf("fleet: deterministic tamper-every rule and per-share tamper rates are exclusive")
		}
		if c.TamperOffset < 0 || c.TamperOffset >= c.TamperEvery {
			return c, fmt.Errorf("fleet: tamper offset %d outside [0, %d)", c.TamperOffset, c.TamperEvery)
		}
	} else if c.TamperOffset != 0 {
		return c, fmt.Errorf("fleet: tamper offset %d without a tamper-every rule", c.TamperOffset)
	}
	if c.BatchSize < 0 || c.ShardSize < 0 || c.SampleK < 0 {
		return c, fmt.Errorf("fleet: negative batch/shard/sample size")
	}
	if c.BatchSize == 0 {
		c.BatchSize = DefaultBatchSize
	}
	if c.ShardSize == 0 {
		c.ShardSize = DefaultShardSize
	}
	if c.BatchSize > c.ShardSize {
		return c, fmt.Errorf("fleet: batch size %d exceeds shard size %d", c.BatchSize, c.ShardSize)
	}
	if c.SampleK == 0 {
		c.SampleK = DefaultSampleK
	}
	return c, nil
}

// nonceLen is the challenge-nonce size in bytes (two ShardSeed draws).
const nonceLen = 16

// flushCap is the most signatures a shard's batch verifier settles in
// one flush. Whole epochs accumulate until the next would pass it, so
// at the default sizes one flush covers a whole 4096-device shard, and
// an epoch larger than the cap is flushed alone. The cap bounds a
// running shard's memory at O(max(BatchSize, flushCap)).
const flushCap = 4096

// Engine appraises one fleet. It is immutable after New and safe for
// concurrent RunShard calls — each call owns its scratch.
type Engine struct {
	cfg    Config
	cum    []float64 // cumulative share fractions
	policy *attest.Policy

	// variants are the fleet's compiled boot states: one healthy variant
	// per share, plus the single implanted variant at the end (a tampered
	// boot extends the implant instead of its share's firmware, so it is
	// share-independent). Each variant precompiles the log replay, the
	// required-PCR and allowlist verdicts and the canonical quote-body
	// encoding, leaving only per-device nonce/sign/verify work on the
	// RunShard hot path.
	variants []*attest.CompiledAppraisal

	mixRoot, tamperRoot, jitterRoot int64
	nonceRoot, entropyRoot          int64
	sampleRoot                      int64
}

// New validates the config and builds an engine.
func New(cfg Config) (*Engine, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:         cfg,
		mixRoot:     harness.ShardSeed(cfg.Seed, purposeMix),
		tamperRoot:  harness.ShardSeed(cfg.Seed, purposeTamper),
		jitterRoot:  harness.ShardSeed(cfg.Seed, purposeJitter),
		nonceRoot:   harness.ShardSeed(cfg.Seed, purposeNonce),
		entropyRoot: harness.ShardSeed(cfg.Seed, purposeEntropy),
		sampleRoot:  harness.ShardSeed(cfg.Seed, purposeSample),
	}
	cum := 0.0
	for _, sh := range cfg.Shares {
		cum += sh.Fraction
		e.cum = append(e.cum, cum)
	}
	allowed := map[cryptoutil.Digest]bool{MeasurementROM: true, MeasurementPolicy: true}
	for _, sh := range cfg.Shares {
		allowed[sh.Firmware] = true
	}
	e.policy = &attest.Policy{AllowedMeasurements: allowed}

	// Compile the boot-state variants once per engine: the measured-boot
	// hashing, log replay and policy allowlist walk run numShares+1
	// times here instead of once per device in RunShard.
	for _, sh := range cfg.Shares {
		log := []tpm.LogEntry{
			{PCR: tpm.PCRBootROM, Measurement: MeasurementROM, Desc: "rom"},
			{PCR: tpm.PCRFirmware, Measurement: sh.Firmware, Desc: sh.FirmwareDesc},
			{PCR: tpm.PCRPolicy, Measurement: MeasurementPolicy, Desc: "policy"},
		}
		ca, err := e.policy.CompileAppraisal(log, attest.PCRSelection, nonceLen)
		if err != nil {
			return nil, fmt.Errorf("fleet: share %s: %w", sh.Label, err)
		}
		e.variants = append(e.variants, ca)
	}
	implanted := []tpm.LogEntry{
		{PCR: tpm.PCRBootROM, Measurement: MeasurementROM, Desc: "rom"},
		{PCR: tpm.PCRFirmware, Measurement: MeasurementImplant, Desc: "???"},
		{PCR: tpm.PCRPolicy, Measurement: MeasurementPolicy, Desc: "policy"},
	}
	ca, err := e.policy.CompileAppraisal(implanted, attest.PCRSelection, nonceLen)
	if err != nil {
		return nil, fmt.Errorf("fleet: implant variant: %w", err)
	}
	e.variants = append(e.variants, ca)
	return e, nil
}

// Config returns the normalized configuration.
func (e *Engine) Config() Config { return e.cfg }

// NumShards is the fleet's verifier-shard count.
func (e *Engine) NumShards() int {
	return (e.cfg.Size + e.cfg.ShardSize - 1) / e.cfg.ShardSize
}

// ShardRange returns the global device-index range [lo, hi) of a shard.
func (e *Engine) ShardRange(shard int) (lo, hi int) {
	lo = shard * e.cfg.ShardSize
	hi = lo + e.cfg.ShardSize
	if hi > e.cfg.Size {
		hi = e.cfg.Size
	}
	return lo, hi
}

// uniform01 maps a ShardSeed draw to [0, 1).
func uniform01(root int64, index int) float64 {
	return float64(uint64(harness.ShardSeed(root, index))>>11) / (1 << 53)
}

// ShareOf returns the mix-share index of a device — a pure function of
// (fleet seed, device index).
func (e *Engine) ShareOf(index int) int {
	if len(e.cum) == 1 {
		return 0
	}
	u := uniform01(e.mixRoot, index)
	for i, c := range e.cum {
		if u < c {
			return i
		}
	}
	return len(e.cum) - 1 // rounding guard: cum[last] may be 1-ε
}

// Tampered reports whether a device boots the implant — a pure function
// of (fleet seed, device index).
func (e *Engine) Tampered(index int) bool {
	if e.cfg.TamperEvery > 0 {
		return index%e.cfg.TamperEvery == e.cfg.TamperOffset
	}
	rate := e.cfg.Shares[e.ShareOf(index)].TamperRate
	if rate <= 0 {
		return false
	}
	return uniform01(e.tamperRoot, index) < rate
}

// jitterOf returns a device's round-trip jitter in [0, Jitter].
func (e *Engine) jitterOf(index int) time.Duration {
	u := uint64(harness.ShardSeed(e.jitterRoot, index))
	return time.Duration(u % uint64(Jitter+1))
}

// priorityOf returns a device's anomaly-sample priority.
func (e *Engine) priorityOf(index int) uint64 {
	return uint64(harness.ShardSeed(e.sampleRoot, index))
}

// pending is one appraisal awaiting its flush: everything the latency
// sweep and the summary need, and nothing more. done is when the
// verifier finished appraising it.
type pending struct {
	arrive   time.Duration
	dispatch time.Duration
	done     time.Duration
	index    int
	variant  int
	tampered bool
}

// appraiseScratch is one RunShard call's pooled state. The pooling
// rule (docs/ARCHITECTURE.md): state that is a pure function of the
// engine config (the per-variant quote bodies and compiled policy
// verdicts) or of the provisioning epoch (the AIK key pair) may live
// here and be reused across devices, and so may the batch verifier,
// whose coefficients bind to each flush's own entries (see
// cryptoutil.BatchVerifier); every observable per-device
// quantity — share, tamper fate, nonce, jitter, sample priority — must
// still derive from (seed, global index), so batch, flush and shard
// boundaries can never reshuffle a device's fate.
type appraiseScratch struct {
	batches []*attest.BatchAppraiser // one per engine variant
	entropy *cryptoutil.DeterministicEntropy
	signer  cryptoutil.VartimeSigner
	bv      *cryptoutil.BatchVerifier
	aik     cryptoutil.PublicKey
	queue   []pending // the devices awaiting the flush, epoch by epoch
	// The epoch's signing batch, in device-index order: every quote
	// body back to back in body, msgs[j] slicing out the epoch's j-th,
	// and its signature and R hint.
	body    []byte
	msgs    [][]byte
	sigs    [][64]byte
	hints   []cryptoutil.RHint
	seedBuf [nonceLen]byte
	keySeed [32]byte
	nonce   [nonceLen]byte
}

// newScratch builds the scratch for a shard of the given number of
// devices: private working copies of every compiled boot variant plus
// the reusable key-derivation state, with the queue sized once for the
// largest flush the shard can hold. Both entropy readers are private
// to the scratch — RunShard calls run concurrently, so sharing a
// reader (or its Reset) across shards would be a data race AND would
// entangle shard outputs; see TestScratchEntropyIsolation in
// batch_race_test.go. The signer and the verifier split their curve
// work over crew, whose helpers keep their buffers and buckets in the
// signer's and the verifier's per-worker scratch.
func (e *Engine) newScratch(devices int, crew *harness.Crew) *appraiseScratch {
	n := e.cfg.BatchSize
	span := min(devices, max(n, flushCap)) // the most devices one flush holds
	sc := &appraiseScratch{
		batches: make([]*attest.BatchAppraiser, len(e.variants)),
		entropy: cryptoutil.NewDeterministicEntropy(nil),
		queue:   make([]pending, 0, span),
		msgs:    make([][]byte, 0, n),
		sigs:    make([][64]byte, n),
		hints:   make([]cryptoutil.RHint, n),
	}
	sc.bv = cryptoutil.NewBatchVerifier(cryptoutil.NewDeterministicEntropy(nil))
	sc.bv.SetRunner(crew)
	sc.signer.SetRunner(crew)
	for i, v := range e.variants {
		sc.batches[i] = v.Batch()
	}
	// Every variant quotes the same PCR selection under the same nonce
	// size, so one body's length sizes the epoch's buffer and the
	// verifier's copies of a flush. The probe cannot fail: sc.nonce has
	// the length the variants compiled for.
	probe, _ := sc.batches[0].AppendBody(nil, sc.nonce[:])
	sc.body = make([]byte, 0, n*len(probe))
	sc.bv.Grow(span, span*len(probe))
	return sc
}

// provision re-derives the scratch's AIK for the provisioning epoch
// starting at global device index lo. The epoch key is a pure function
// of (fleet seed, lo): the same deterministic-entropy expansion the
// unbatched engine ran per device, keyed by the epoch's first index —
// so the batch's devices share the key their epoch's first device would
// have enrolled, and re-batching under the same config cannot change
// any appraisal outcome.
func (sc *appraiseScratch) provision(e *Engine, lo int) error {
	binary.BigEndian.PutUint64(sc.seedBuf[:8], uint64(harness.ShardSeed(e.entropyRoot, 2*lo)))
	binary.BigEndian.PutUint64(sc.seedBuf[8:], uint64(harness.ShardSeed(e.entropyRoot, 2*lo+1)))
	sc.entropy.Reset(sc.seedBuf[:])
	if _, err := sc.entropy.Read(sc.keySeed[:]); err != nil {
		return fmt.Errorf("fleet: provision epoch %d: %w", lo, err)
	}
	sc.signer.Init(sc.keySeed[:])
	sc.aik = sc.signer.Public()
	return nil
}

// signEpoch runs the device side of the attestation exchanges for
// devices [lo, hi), dispatched from clock. Each device's tamper fate,
// boot variant and fresh nonce derive from (seed, global index) and
// land at the end of the queue and in its canonical quote body; then
// the epoch's AIK signs every body in one call, yielding the
// signatures and R hints the verifier admits.
func (sc *appraiseScratch) signEpoch(e *Engine, lo, hi int, clock time.Duration) error {
	sc.body, sc.msgs = sc.body[:0], sc.msgs[:0]
	for i := lo; i < hi; i++ {
		tampered := e.Tampered(i)
		variant := len(sc.batches) - 1 // the implanted boot state
		if !tampered {
			variant = e.ShareOf(i)
		}
		binary.BigEndian.PutUint64(sc.nonce[:8], uint64(harness.ShardSeed(e.nonceRoot, 2*i)))
		binary.BigEndian.PutUint64(sc.nonce[8:], uint64(harness.ShardSeed(e.nonceRoot, 2*i+1)))
		start := len(sc.body)
		var err error
		if sc.body, err = sc.batches[variant].AppendBody(sc.body, sc.nonce[:]); err != nil {
			return fmt.Errorf("fleet: device %d: quote: %w", i, err)
		}
		// Should an append ever move body, the earlier slices keep
		// the old array, whose bytes no longer change.
		sc.msgs = append(sc.msgs, sc.body[start:])

		dispatch := clock + time.Duration(i-lo)*DispatchCost
		sc.queue = append(sc.queue, pending{
			arrive:   dispatch + 2*Latency + e.jitterOf(i),
			dispatch: dispatch,
			index:    i,
			variant:  variant,
			tampered: tampered,
		})
	}
	n := len(sc.msgs)
	sc.signer.SignBatch(sc.msgs, sc.sigs[:n], sc.hints[:n])
	return nil
}

// settle flushes the batch verifier — one random-linear-combination
// check standing in for one signature verification per queued device —
// and folds every queued device into sum in queue order: epoch by
// epoch, each in arrival order, the order the verifier appraised them.
// The queue holds the devices from first on, which the verifier
// admitted in index order, so device i's verdict is flush entry
// i-first.
func (sc *appraiseScratch) settle(e *Engine, sum *Summary, first int) {
	sigOK := sc.bv.Flush()
	for _, p := range sc.queue {
		untrusted := sc.batches[p.variant].Resolve(sigOK[p.index-first]) != nil
		reason := ReasonHealthy
		switch {
		case p.tampered && untrusted:
			reason = ReasonCaught
		case p.tampered:
			reason = ReasonMissed
		case untrusted:
			reason = ReasonFalseAlarm
		}
		sum.observe(p.index, reason, p.done-p.dispatch, e.priorityOf(p.index))
	}
	sc.queue = sc.queue[:0]
}

// RunShard streams shard's devices through batches on the calling
// goroutine and returns the folded summary. Memory is
// O(max(BatchSize, flushCap)): a device's TPM, quote and log die with
// the loop iteration that appraised them, the signing batch spans one
// epoch, and the arrival queue and the batch verifier span one flush.
//
// The virtual-time model: a shard is one verifier. It dispatches a
// batch's challenges back to back (DispatchCost apart), each quote
// returns after a round trip (2×Latency plus the device's jitter, at
// most Jitter), and the verifier appraises quotes serially in arrival
// order (AppraiseCost each).
// The next batch's challenges go out when the previous batch drains —
// the streaming pipeline a bounded-memory verifier actually runs.
// That clock depends on arrival times only, never on verdicts, so a
// flush may span several epochs: only the summary waits for it.
//
// The summary is a function of the engine and the shard alone:
// RunParallel's helpers may sign an epoch and verify a flush alongside
// the caller, but they only regroup exact curve sums.
func (e *Engine) RunShard(shard int) (Summary, error) { return e.runShard(shard, nil) }

// runShard is RunShard with crew's helpers splitting each epoch's
// signing and each flush's curve work.
func (e *Engine) runShard(shard int, crew *harness.Crew) (Summary, error) {
	lo, hi := e.ShardRange(shard)
	if lo >= hi {
		return Summary{}, fmt.Errorf("fleet: shard %d outside the fleet's %d shards", shard, e.NumShards())
	}
	sum := Summary{SampleK: e.cfg.SampleK}
	sc := e.newScratch(hi-lo, crew)

	clock := time.Duration(0)
	first := lo // the first device of the pending flush
	for b := lo; b < hi; b += e.cfg.BatchSize {
		bHi := min(b+e.cfg.BatchSize, hi)
		// A flush holds whole epochs: settle before one that would
		// push it past the cap.
		if len(sc.queue) > 0 && len(sc.queue)+bHi-b > flushCap {
			sc.settle(e, &sum, first)
			first = b
		}
		// One provisioning epoch per batch: the expensive AIK derivation
		// amortizes across the batch while everything observable stays a
		// pure function of (seed, global index).
		if err := sc.provision(e, b); err != nil {
			return Summary{}, err
		}
		if err := sc.signEpoch(e, b, bHi, clock); err != nil {
			return Summary{}, err
		}
		// The verifier admits each quote in index order; the flush that
		// settles them may come epochs later.
		for j, msg := range sc.msgs {
			sc.bv.AddHinted(sc.aik, msg, sc.sigs[j][:], &sc.hints[j])
		}
		// Serial appraisal in arrival order; ties break by index so the
		// sweep is deterministic.
		epoch := sc.queue[len(sc.queue)-(bHi-b):]
		sort.Slice(epoch, func(x, y int) bool {
			if epoch[x].arrive != epoch[y].arrive {
				return epoch[x].arrive < epoch[y].arrive
			}
			return epoch[x].index < epoch[y].index
		})
		free := clock
		for j := range epoch {
			p := &epoch[j]
			if p.arrive > free {
				free = p.arrive
			}
			free += AppraiseCost
			p.done = free
		}
		clock = free
		sum.Batches++
	}
	sc.settle(e, &sum, first)
	sum.Completion = clock
	return sum, nil
}

// RunParallel appraises the whole fleet by fanning RunShard across the
// harness pool and merging shard summaries in shard order — the one
// shared entry point every fleet driver (E8, cresim -fleet, cresbench
// -fleet) runs through. A nil pool runs serially on the calling
// goroutine. Workers the shards leave idle are lent to them: each
// shard gets Workers()/NumShards() − 1 helpers (none when shards ≥
// workers), which claim tasks of its epochs' signing and its flushes'
// curve work alongside the shard's own goroutine.
//
// The contract: the shard split is a function of fleet size only;
// the split inside a shard may follow the pool, because it only
// regroups exact curve sums. Per-shard seeds derive by shard index,
// every per-device quantity is a pure function of (seed, global
// index), and Merge is associative — so the returned Summary is
// byte-for-byte identical at any pool width.
func (e *Engine) RunParallel(pool *harness.Pool) (Summary, error) {
	helpers := pool.Workers()/e.NumShards() - 1
	outs, err := harness.Map(pool, e.NumShards(), e.cfg.Seed, func(sh harness.Shard) (Summary, error) {
		crew := harness.NewCrew(helpers)
		defer crew.Stop()
		return e.runShard(sh.Index, crew)
	})
	if err != nil {
		return Summary{}, err
	}
	var sum Summary
	for _, out := range outs {
		sum = sum.Merge(out)
	}
	return sum, nil
}
