package fleet

import (
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	"time"

	"cres/internal/attest"
	"cres/internal/cryptoutil"
	"cres/internal/harness"
)

// The verifier hierarchy: attestation past the point where one
// appraiser can hold the fleet.
//
// The flat engine trusts its verifier shards by fiat — a shard that
// lied about its summary would poison the merged fleet statistics
// undetectably. The tree makes the verifiers themselves subject to
// attestation. Verifier shards become the leaves of a tree of interior
// verifier nodes with configurable fan-out: each leaf signs the
// canonical encoding of its shard Summary, and each interior node
// (1) batch-verifies, in one flush, the signatures of its children and
// of the records its children forwarded, (2) re-merges each child's
// forwarded inputs and compares the result byte-for-byte against the
// child's claim, (3) merges its children's summaries, and (4) re-signs
// the merged result chained to its children's signatures
// (attest.ChainDigest / attest.AppendChainMessage). A node that forges
// its merge — signs a summary that is not the merge of its attested
// inputs — is detected and attributed by its direct parent; a record
// tampered in transit fails its signature the same way a tampered
// device quote does. The runner performs the same check on the root,
// so no tier is exempt.
//
// A detected interior liar is excised: its parent substitutes the
// liar's verified forwarded records in the liar's place, so the
// hierarchy heals around the lie and the root summary is the honest
// fleet summary regardless of where the lie was injected. A leaf
// record with a bad signature is re-fetched once (the leaf re-sends
// its deterministic attestation), modelling a challenge retry.
//
// This only works because Merge is a true associative/commutative
// algebra with the zero Summary as identity: a parent's re-merge of a
// child's inputs must reproduce the child's merge byte-for-byte even
// though the two fold in different groupings. See the SampleK minimum
// rule in Summary.Merge — with the old larger-capacity rule, honest
// nodes over heterogeneous-K inputs would have been flagged as liars.
//
// Every quantity is deterministic: node keys and batch-verify
// coefficients derive from the fleet seed by per-purpose ShardSeed
// roots and the node's global index, leaf summaries are the engine's
// shard summaries, and tiers aggregate in node-index order — so a tree
// run, detections included, is byte-identical at any pool width. No
// node ever holds more than its own batch of records (its direct
// children plus what they forwarded), which is what lets the hierarchy
// take the fleet past any single verifier's capacity.

// The hierarchy's virtual-time constants.
const (
	// TreeLinkLatency is the modelled one-way uplink latency between
	// hierarchy tiers.
	TreeLinkLatency = Latency
	// TreeVerifyCost is the modelled cost of one signature operation
	// (sign or verify) at a hierarchy node.
	TreeVerifyCost = AppraiseCost
)

// TreeConfig shapes the verifier hierarchy over an engine's shards.
type TreeConfig struct {
	// Fanout is the number of children per interior node (>= 2).
	Fanout int
}

// NodeID names one hierarchy node: tier 0 is the leaves, tier
// Tree.Depth() the root. The operator's root check reports as tier
// Depth()+1, node 0 — the implicit parent of the root.
type NodeID struct {
	Tier, Index int
}

// String renders the node position for tables and attribution lines.
func (id NodeID) String() string { return fmt.Sprintf("tier %d node %d", id.Tier, id.Index) }

// Attestation is one node's signed claim: its (merged) Summary, the
// chain digest binding it to its children's signatures, and the
// ed25519 signature over the canonical chain message. Children holds
// the direct child records the node forwards one tier up — each pruned
// of its own Children, so a node's upward message is one batch, never
// a subtree.
type Attestation struct {
	// Node is the claimant's position; its verification key derives
	// from it.
	Node NodeID
	// Summary is the node's claim: its shard summary (leaf) or the
	// merge of its children's summaries (interior).
	Summary Summary
	// ChainDigest is attest.ChainDigest over the node's children's
	// signatures, in child order; the zero digest for a leaf.
	ChainDigest cryptoutil.Digest
	// Sig signs attest.AppendChainMessage(summary encoding,
	// ChainDigest) under the node's derived key.
	Sig []byte
	// Children are the direct child records forwarded for the parent's
	// re-merge check, pruned of their own Children.
	Children []Attestation
	// Finish is the virtual time the node completed its work.
	Finish time.Duration
}

// ForgeMode selects how an injected misbehaving node deviates.
type ForgeMode int

const (
	// ForgeNone injects nothing — every node is honest.
	ForgeNone ForgeMode = iota
	// ForgeSummary makes the node a liar: it reports a forged merged
	// summary (compromises hidden), honestly signed under its own key.
	// Only interior nodes merge, so only they can forge one.
	ForgeSummary
	// ForgeTamper corrupts the node's signature in transit, modelling a
	// tampered verifier or channel; the summary bytes stay genuine.
	ForgeTamper
)

// Forge is one injected misbehaviour.
type Forge struct {
	Node NodeID
	Mode ForgeMode
}

// Detection is one caught misbehaviour, attributed to the node that
// produced it at the virtual time its checker finished.
type Detection struct {
	// Liar is the attributed node.
	Liar NodeID
	// By is the node whose re-verification caught it (the liar's
	// parent, or the operator check above the root).
	By NodeID
	// At is the absolute virtual time of detection: when the checking
	// node finished the tier's verification pass.
	At time.Duration
	// Lag is the detection latency — At minus the liar's own finish
	// time: how long the lie lived before a checker saw it.
	Lag time.Duration
	// Kind is the check that fired: "forged-merge" (re-merge
	// mismatch), "bad-signature" (signature failed) or
	// "forged-evidence" (forwarded records don't match the signed
	// chain digest).
	Kind string
}

// TreeResult is one hierarchy run.
type TreeResult struct {
	// Root is the root node's attestation (children pruned).
	Root Attestation
	// Summary is the operator-verified fleet summary — the re-merge of
	// the root's attested inputs, which equals the honest flat-engine
	// summary even when a liar was excised along the way.
	Summary Summary
	// Completion is the virtual time of the operator's root check.
	Completion time.Duration
	// SigChecks counts every signature verification performed across
	// all tiers and the operator check.
	SigChecks int
	// MaxHeld is the largest number of attestation records any single
	// checker held at once — the "no node holds more than a batch"
	// bound.
	MaxHeld int
	// Detections lists every caught misbehaviour in (tier, node) check
	// order; empty on an honest run.
	Detections []Detection
}

// Tree arranges an engine's verifier shards as the leaves of a
// re-attesting verifier hierarchy. It is immutable after NewTree and
// safe for concurrent runs.
type Tree struct {
	eng *Engine
	cfg TreeConfig
	// tiers[t] is the node count of tier t; tiers[0] is the leaf count
	// (the engine's shard count) and tiers[len-1] == 1 (the root).
	tiers []int
	// offsets[t] is the global node index of tier t's first node.
	offsets []int
	// pubs holds every node's derived public key, by global node
	// index — the key directory parents verify children against.
	pubs []cryptoutil.PublicKey

	keyRoot, coeffRoot int64
}

// NewTree validates the config and builds the hierarchy over the
// engine's shards, deriving every node key up front.
func NewTree(e *Engine, cfg TreeConfig) (*Tree, error) {
	if cfg.Fanout < 2 {
		return nil, fmt.Errorf("fleet: tree fanout %d, want >= 2", cfg.Fanout)
	}
	leaves := e.NumShards()
	if leaves < 2 {
		return nil, fmt.Errorf("fleet: hierarchy needs >= 2 verifier shards, engine has %d (shrink ShardSize or grow the fleet)", leaves)
	}
	t := &Tree{
		eng:       e,
		cfg:       cfg,
		tiers:     []int{leaves},
		keyRoot:   harness.ShardSeed(e.cfg.Seed, purposeNodeKey),
		coeffRoot: harness.ShardSeed(e.cfg.Seed, purposeTreeCoeff),
	}
	for n := leaves; n > 1; {
		n = (n + cfg.Fanout - 1) / cfg.Fanout
		t.tiers = append(t.tiers, n)
	}
	t.offsets = make([]int, len(t.tiers))
	total := 0
	for i, n := range t.tiers {
		t.offsets[i] = total
		total += n
	}
	t.pubs = make([]cryptoutil.PublicKey, total)
	var sg cryptoutil.VartimeSigner
	entropy := cryptoutil.NewDeterministicEntropy(nil)
	for g := range t.pubs {
		if err := t.initNodeSigner(&sg, entropy, g); err != nil {
			return nil, err
		}
		t.pubs[g] = append(cryptoutil.PublicKey(nil), sg.Public()...)
	}
	return t, nil
}

// Depth is the number of merge tiers above the leaves (the root's tier
// number).
func (t *Tree) Depth() int { return len(t.tiers) - 1 }

// Leaves is the leaf count — the engine's verifier-shard count.
func (t *Tree) Leaves() int { return t.tiers[0] }

// Tiers returns the node count per tier, leaves first.
func (t *Tree) Tiers() []int { return append([]int(nil), t.tiers...) }

// globalIndex flattens a NodeID into the key-directory index.
func (t *Tree) globalIndex(id NodeID) int { return t.offsets[id.Tier] + id.Index }

// initNodeSigner derives node g's signing key: two ShardSeed draws
// from the node-key purpose root expand through deterministic entropy
// to the 32-byte key seed — the same derivation shape as the device
// AIKs, on a stream no device draw can collide with.
func (t *Tree) initNodeSigner(sg *cryptoutil.VartimeSigner, entropy *cryptoutil.DeterministicEntropy, g int) error {
	var seedBuf [16]byte
	var keySeed [32]byte
	binary.BigEndian.PutUint64(seedBuf[:8], uint64(harness.ShardSeed(t.keyRoot, 2*g)))
	binary.BigEndian.PutUint64(seedBuf[8:], uint64(harness.ShardSeed(t.keyRoot, 2*g+1)))
	entropy.Reset(seedBuf[:])
	if _, err := entropy.Read(keySeed[:]); err != nil {
		return fmt.Errorf("fleet: tree node %d key: %w", g, err)
	}
	sg.Init(keySeed[:])
	return nil
}

// signNode signs a node's chain message.
func (t *Tree) signNode(id NodeID, sum Summary, chain cryptoutil.Digest) ([]byte, error) {
	var sg cryptoutil.VartimeSigner
	entropy := cryptoutil.NewDeterministicEntropy(nil)
	if err := t.initNodeSigner(&sg, entropy, t.globalIndex(id)); err != nil {
		return nil, err
	}
	msg := attest.AppendChainMessage(nil, sum.AppendCanonical(nil), chain)
	sig, _ := sg.Sign(msg)
	return append([]byte(nil), sig[:]...), nil
}

// verifyRecord is the individual (stdlib) verification of one record's
// chain message — the operator check and the leaf-retry path use it;
// interior nodes batch instead.
func (t *Tree) verifyRecord(rec Attestation) bool {
	msg := attest.AppendChainMessage(nil, rec.Summary.AppendCanonical(nil), rec.ChainDigest)
	return t.pubs[t.globalIndex(rec.Node)].Verify(msg, rec.Sig)
}

// chainBinds reports whether a record's signed chain digest covers
// exactly the records it forwarded, in order.
func chainBinds(c Attestation) bool {
	sigs := make([][]byte, len(c.Children))
	for i := range c.Children {
		sigs[i] = c.Children[i].Sig
	}
	return attest.ChainDigest(sigs) == c.ChainDigest
}

// sameSummary compares two summaries by canonical encoding — the only
// equality the hierarchy ever uses, so checkers and signers cannot
// disagree about what "equal" means.
func sameSummary(a, b Summary) bool {
	return string(a.AppendCanonical(nil)) == string(b.AppendCanonical(nil))
}

// prune copies an attestation without its Children — the form a record
// takes when forwarded a second tier up.
func prune(a Attestation) Attestation {
	a.Children = nil
	return a
}

// corruptSig flips one bit of a signature copy — the in-transit
// tamper.
func corruptSig(sig []byte) []byte {
	out := append([]byte(nil), sig...)
	if len(out) == ed25519.SignatureSize {
		out[0] ^= 0x40
	}
	return out
}

// nodeOutcome is one interior node's work product: its attestation
// plus the bookkeeping the runner aggregates in node-index order.
type nodeOutcome struct {
	att     Attestation
	dets    []Detection
	checks  int
	held    int
	retries int
}

// Run attests the fleet through the hierarchy with every node honest.
func (t *Tree) Run(pool *harness.Pool) (*TreeResult, error) {
	return t.RunForged(pool, Forge{Mode: ForgeNone})
}

// RunForged runs the hierarchy with one injected misbehaviour. A
// ForgeSummary node must be interior (tier >= 1): a leaf's inputs are
// raw device quotes, not attested records, so a forged leaf summary is
// outside the hierarchy's detection contract — the engine's own policy
// appraisal is the check at that boundary.
func (t *Tree) RunForged(pool *harness.Pool, f Forge) (*TreeResult, error) {
	if f.Mode != ForgeNone {
		if f.Node.Tier < 0 || f.Node.Tier >= len(t.tiers) || f.Node.Index < 0 || f.Node.Index >= t.tiers[f.Node.Tier] {
			return nil, fmt.Errorf("fleet: forge node %s outside the hierarchy (tiers %v)", f.Node, t.tiers)
		}
		if f.Mode == ForgeSummary && f.Node.Tier == 0 {
			return nil, fmt.Errorf("fleet: forge node %s: a leaf has no attested inputs to re-merge; only interior merges can be forged", f.Node)
		}
	}

	res := &TreeResult{}

	// Leaf tier: run the shards across the pool; each leaf signs its
	// shard summary. Signatures are deterministic per (key, message),
	// so the fan-out cannot change a byte.
	level, err := harness.Map(pool, t.Leaves(), t.eng.cfg.Seed, func(sh harness.Shard) (Attestation, error) {
		sum, err := t.eng.RunShard(sh.Index)
		if err != nil {
			return Attestation{}, err
		}
		id := NodeID{Tier: 0, Index: sh.Index}
		sig, err := t.signNode(id, sum, cryptoutil.Digest{})
		if err != nil {
			return Attestation{}, err
		}
		a := Attestation{
			Node:    id,
			Summary: sum,
			Sig:     sig,
			Finish:  sum.Completion + TreeVerifyCost, // the sign op
		}
		if f.Mode == ForgeTamper && f.Node == id {
			a.Sig = corruptSig(a.Sig)
		}
		return a, nil
	})
	if err != nil {
		return nil, err
	}

	// Interior tiers, bottom-up. Nodes within a tier are independent,
	// so they fan across the pool; aggregation below runs in node-index
	// order, keeping detections and counters byte-identical at any
	// width.
	for tier := 1; tier < len(t.tiers); tier++ {
		tier, prev := tier, level
		outs, err := harness.Map(pool, t.tiers[tier], t.eng.cfg.Seed, func(sh harness.Shard) (nodeOutcome, error) {
			lo := sh.Index * t.cfg.Fanout
			hi := lo + t.cfg.Fanout
			if hi > len(prev) {
				hi = len(prev)
			}
			return t.runNode(NodeID{Tier: tier, Index: sh.Index}, prev[lo:hi], f)
		})
		if err != nil {
			return nil, err
		}
		level = level[:0:0]
		for _, out := range outs {
			level = append(level, out.att)
			res.Detections = append(res.Detections, out.dets...)
			res.SigChecks += out.checks
			if out.held > res.MaxHeld {
				res.MaxHeld = out.held
			}
		}
	}

	// Operator check: the runner is the root's parent. Verify the
	// root's signature, its chain binding and its forwarded records,
	// and re-merge them — so a forged merge at the root itself is
	// caught the same way as at any other tier.
	root := level[0]
	op := NodeID{Tier: len(t.tiers), Index: 0}
	checks := 1
	rootSigOK := t.verifyRecord(root)
	var det *Detection
	switch {
	case !rootSigOK:
		det = &Detection{Liar: root.Node, By: op, Kind: "bad-signature"}
	case !chainBinds(root):
		det = &Detection{Liar: root.Node, By: op, Kind: "forged-evidence"}
	}
	rm := Summary{}
	for _, gc := range root.Children {
		checks++
		if t.verifyRecord(gc) {
			rm = rm.Merge(gc.Summary)
		} else if det == nil {
			det = &Detection{Liar: root.Node, By: op, Kind: "forged-evidence"}
		}
	}
	if det == nil && !sameSummary(rm, root.Summary) {
		det = &Detection{Liar: root.Node, By: op, Kind: "forged-merge"}
	}
	res.SigChecks += checks
	if held := 1 + len(root.Children); held > res.MaxHeld {
		res.MaxHeld = held
	}
	res.Completion = root.Finish + TreeLinkLatency + time.Duration(checks)*TreeVerifyCost
	if det != nil {
		det.At = res.Completion
		det.Lag = det.At - root.Finish
		res.Detections = append(res.Detections, *det)
	}
	res.Summary = rm
	res.Root = prune(root)
	return res, nil
}

// runNode executes one interior node: one batch flush settles every
// signature it checks, each child's claim is re-merged from its
// forwarded records, misbehaving children are excised (interior) or
// re-fetched (leaf), and the node re-signs its merge chained to the
// records it forwards.
func (t *Tree) runNode(id NodeID, children []Attestation, f Forge) (nodeOutcome, error) {
	out := nodeOutcome{}
	finish := time.Duration(0)
	for _, c := range children {
		out.held += 1 + len(c.Children)
		if c.Finish > finish {
			finish = c.Finish
		}
	}

	// Enqueue every record — children and their forwarded records — on
	// the node's batch verifier, then settle them in one flush.
	bv := cryptoutil.NewBatchVerifier(t.nodeCoeffStream(t.globalIndex(id)))
	enqueue := func(rec Attestation) {
		bv.Add(t.pubs[t.globalIndex(rec.Node)],
			attest.AppendChainMessage(nil, rec.Summary.AppendCanonical(nil), rec.ChainDigest), rec.Sig)
	}
	childSigAt := make([]int, len(children))
	gcSigAt := make([][]int, len(children))
	n := 0
	for ci, c := range children {
		childSigAt[ci] = n
		enqueue(c)
		n++
		for _, gc := range c.Children {
			gcSigAt[ci] = append(gcSigAt[ci], n)
			enqueue(gc)
			n++
		}
	}
	ok := bv.Flush()
	out.checks = n

	// Evaluate each child against the settled verdicts, in child
	// order.
	merged := Summary{}
	forwarded := make([]Attestation, 0, len(children))
	for ci, c := range children {
		switch {
		case !ok[childSigAt[ci]]:
			out.dets = append(out.dets, Detection{Liar: c.Node, By: id, Kind: "bad-signature"})
			if len(c.Children) == 0 {
				// A leaf record failed its signature: re-fetch it once.
				// The leaf's attestation is deterministic, so the retry
				// yields the genuine record, at the cost of one more
				// round trip and verification.
				genuine, err := t.refetchLeaf(c)
				if err != nil {
					return nodeOutcome{}, err
				}
				out.retries++
				out.checks++
				if !t.verifyRecord(genuine) {
					return nodeOutcome{}, fmt.Errorf("fleet: leaf %s re-fetch failed verification", c.Node)
				}
				merged = merged.Merge(genuine.Summary)
				forwarded = append(forwarded, genuine)
				continue
			}
			// A tampered interior record: excise it and adopt its
			// verified forwarded records directly.
			merged, forwarded = adoptVerified(merged, forwarded, c, gcSigAt[ci], ok)

		case len(c.Children) == 0:
			// An honest leaf: nothing to re-merge.
			merged = merged.Merge(c.Summary)
			forwarded = append(forwarded, prune(c))

		case !chainBinds(c) || !allOK(ok, gcSigAt[ci]):
			// The forwarded records aren't the ones the child signed
			// over, or one of them fails verification — the child
			// forged its evidence. Adopt whatever verifies.
			out.dets = append(out.dets, Detection{Liar: c.Node, By: id, Kind: "forged-evidence"})
			merged, forwarded = adoptVerified(merged, forwarded, c, gcSigAt[ci], ok)

		default:
			// Re-merge the child's attested inputs and compare
			// byte-for-byte: a child that signed a summary that is not
			// the merge of what it verified is the lying verifier, and
			// this is the check that catches it.
			rm := Summary{}
			for _, gc := range c.Children {
				rm = rm.Merge(gc.Summary)
			}
			if !sameSummary(rm, c.Summary) {
				out.dets = append(out.dets, Detection{Liar: c.Node, By: id, Kind: "forged-merge"})
				merged, forwarded = adoptVerified(merged, forwarded, c, gcSigAt[ci], ok)
			} else {
				merged = merged.Merge(c.Summary)
				forwarded = append(forwarded, prune(c))
			}
		}
	}

	finish += TreeLinkLatency + time.Duration(out.checks)*TreeVerifyCost
	finish += time.Duration(out.retries) * TreeLinkLatency
	finish += TreeVerifyCost // the re-sign

	report := merged
	if f.Mode == ForgeSummary && f.Node == id {
		// The lie: hide every compromise the subtree caught. The node
		// signs the forged claim with its genuine key — only a
		// parent's re-merge of the forwarded records can expose it.
		report.Caught = 0
		report.FalseAlarms = 0
		report.Sample = nil
	}
	sigs := make([][]byte, len(forwarded))
	for i := range forwarded {
		sigs[i] = forwarded[i].Sig
	}
	chain := attest.ChainDigest(sigs)
	sig, err := t.signNode(id, report, chain)
	if err != nil {
		return nodeOutcome{}, err
	}
	if f.Mode == ForgeTamper && f.Node == id {
		sig = corruptSig(sig)
	}
	for i := range out.dets {
		out.dets[i].At = finish
		out.dets[i].Lag = finish - childFinish(children, out.dets[i].Liar)
	}
	out.att = Attestation{
		Node:        id,
		Summary:     report,
		ChainDigest: chain,
		Sig:         sig,
		Children:    forwarded,
		Finish:      finish,
	}
	return out, nil
}

// adoptVerified excises a misbehaving interior child: its forwarded
// records whose signatures verified are merged and re-forwarded in the
// child's place, healing the hierarchy around the lie.
func adoptVerified(merged Summary, forwarded []Attestation, c Attestation, sigAt []int, ok []bool) (Summary, []Attestation) {
	for i, gc := range c.Children {
		if ok[sigAt[i]] {
			merged = merged.Merge(gc.Summary)
			forwarded = append(forwarded, gc)
		}
	}
	return merged, forwarded
}

// allOK reports whether every verdict at the given indices passed.
func allOK(ok []bool, at []int) bool {
	for _, i := range at {
		if !ok[i] {
			return false
		}
	}
	return true
}

// childFinish finds the finish time of the attributed child record;
// attribution always names a direct child of the checking node.
func childFinish(children []Attestation, id NodeID) time.Duration {
	for _, c := range children {
		if c.Node == id {
			return c.Finish
		}
	}
	return 0
}

// nodeCoeffStream seeds node g's batch-verify coefficient stream from
// the tree-coefficient purpose root, so which random linear
// combination each node checks is a pure function of (seed, node) and
// the records it verifies.
func (t *Tree) nodeCoeffStream(g int) *cryptoutil.DeterministicEntropy {
	var seedBuf [16]byte
	binary.BigEndian.PutUint64(seedBuf[:8], uint64(harness.ShardSeed(t.coeffRoot, 2*g)))
	binary.BigEndian.PutUint64(seedBuf[8:], uint64(harness.ShardSeed(t.coeffRoot, 2*g+1)))
	return cryptoutil.NewDeterministicEntropy(seedBuf[:])
}

// refetchLeaf regenerates a leaf's genuine attestation after its
// record failed verification — the retry path. Deterministic: the
// leaf's summary and signature are pure functions of the seed.
func (t *Tree) refetchLeaf(c Attestation) (Attestation, error) {
	sum, err := t.eng.RunShard(c.Node.Index)
	if err != nil {
		return Attestation{}, err
	}
	sig, err := t.signNode(c.Node, sum, cryptoutil.Digest{})
	if err != nil {
		return Attestation{}, err
	}
	return Attestation{
		Node:    c.Node,
		Summary: sum,
		Sig:     sig,
		Finish:  c.Finish,
	}, nil
}
