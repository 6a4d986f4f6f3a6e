package cres

import (
	"fmt"
	"time"

	"cres/internal/cryptoutil"
	"cres/internal/report"
)

// This file implements BV: the batched-signature microbenchmark. It is
// not one of the paper's experiments — it is a stethoscope on the
// crypto kernel the fleet hot path (E8) now runs on. E8's devices/sec
// folds signing, policy checks and the virtual latency sweep into one
// number; BV isolates the verification primitive itself, so a
// regression in the multi-scalar multiplication or the hint fast path
// is visible directly instead of diluted ~5x. Its whole-run cost is
// BV/ns_per_op in the cresbench -json report, recorded, not gated.

// bvSigs is the batch size BV measures — the fleet engine's default
// provisioning-epoch batch, so the measured shape is the deployed one.
const bvSigs = 256

// bvTitle is the BV table title (shared with the stable rendering).
const bvTitle = "BV — Batched ed25519 verification microbenchmark (one epoch AIK, 256 quote-sized messages)"

// BVRow is one verification path's measurement.
type BVRow struct {
	// Path names the verification strategy.
	Path string
	// NsPerSig is host-clock nanoseconds per signature verified.
	NsPerSig float64
	// Verified is how many of the batch's signatures verified true — a
	// deterministic column proving all paths agreed on the verdicts.
	Verified int
}

// BVResult is the batch-verification microbenchmark.
type BVResult struct {
	Sigs  int
	Rows  []BVRow
	Table *report.Table
}

// RenderStable renders the table with the host-clock column masked, so
// the determinism gate can byte-compare suite output across runs.
func (r *BVResult) RenderStable() string {
	t := report.NewTable(bvTitle, "Path", "ns/sig", "Verified")
	for _, row := range r.Rows {
		t.AddRow(row.Path, "masked", report.I(row.Verified))
	}
	return t.Render()
}

// RunBVBatchVerify measures ed25519 verification throughput over one
// fleet-shaped batch (one provisioning-epoch AIK, bvSigs quote-sized
// messages) three ways: the stdlib per-signature path the engine used
// before batching, the batch verifier admitting compressed signatures,
// and the batch verifier fed signer hints — the exact configuration
// the fleet hot path runs. Keys, messages and coefficients all derive
// from seed, so everything except the ns/sig columns is reproducible.
func RunBVBatchVerify(seed int64) (*BVResult, error) {
	entropy := cryptoutil.NewDeterministicEntropy(fmt.Appendf(nil, "bv-%d", seed))
	var keySeed [32]byte
	if _, err := entropy.Read(keySeed[:]); err != nil {
		return nil, err
	}
	var signer cryptoutil.VartimeSigner
	signer.Init(keySeed[:])
	pub := signer.Public()

	// One provisioning epoch: bvSigs quote-body-sized messages under one
	// AIK, like a fleet batch.
	msgs := make([][]byte, bvSigs)
	sigs := make([][64]byte, bvSigs)
	hints := make([]cryptoutil.RHint, bvSigs)
	for i := range msgs {
		msgs[i] = make([]byte, 132) // the canonical 3-PCR quote body size
		if _, err := entropy.Read(msgs[i]); err != nil {
			return nil, err
		}
	}
	signer.SignBatch(msgs, sigs, hints)

	res := &BVResult{Sigs: bvSigs}
	measure := func(path string, verify func() int) {
		start := time.Now()
		verified := verify()
		elapsed := time.Since(start)
		res.Rows = append(res.Rows, BVRow{
			Path:     path,
			NsPerSig: float64(elapsed.Nanoseconds()) / float64(bvSigs),
			Verified: verified,
		})
	}

	measure("stdlib per-signature", func() int {
		n := 0
		for i := range msgs {
			if pub.Verify(msgs[i], sigs[i][:]) {
				n++
			}
		}
		return n
	})

	countTrue := func(oks []bool) int {
		n := 0
		for _, ok := range oks {
			if ok {
				n++
			}
		}
		return n
	}
	coeff := cryptoutil.NewDeterministicEntropy(fmt.Appendf(nil, "bv-coeff-%d", seed))
	bv := cryptoutil.NewBatchVerifier(coeff)
	measure("batch-256", func() int {
		bv.Reset(coeff)
		for i := range msgs {
			bv.Add(pub, msgs[i], sigs[i][:])
		}
		return countTrue(bv.Flush())
	})
	measure("batch-256 hinted (fleet shape)", func() int {
		bv.Reset(coeff)
		for i := range msgs {
			bv.AddHinted(pub, msgs[i], sigs[i][:], &hints[i])
		}
		return countTrue(bv.Flush())
	})

	for _, row := range res.Rows {
		if row.Verified != bvSigs {
			return nil, fmt.Errorf("bv: %s verified %d/%d honest signatures", row.Path, row.Verified, bvSigs)
		}
	}

	t := report.NewTable(bvTitle, "Path", "ns/sig", "Verified")
	for _, row := range res.Rows {
		t.AddRow(row.Path, fmt.Sprintf("%.0f", row.NsPerSig), report.I(row.Verified))
	}
	res.Table = t
	return res, nil
}
