package attest

import (
	"crypto/sha256"

	"cres/internal/cryptoutil"
)

// Verifier-side signing chain: the re-attestation primitive the
// hierarchical fleet verifier is built on.
//
// In the flat fleet, one appraiser is trusted by fiat. In a multi-tier
// hierarchy, every verifier node is itself subject to attestation: a
// node signs the canonical encoding of the summary it reports, chained
// to a digest of its direct children's signatures. The chain digest
// binds a node's claim to the exact set of attested inputs it merged,
// so an interior node cannot quietly swap, drop or re-order children
// without its own signature changing — and because each node forwards
// its children's attestations one tier up, a parent can re-verify the
// child signatures and re-merge the child summaries, catching a forged
// merge at the tier directly above the liar. The leaf chain digest is
// the zero digest: a leaf's inputs are raw device quotes, already
// settled by the policy appraisal.

// chainLabel domain-separates the hierarchy's signed messages from
// every other signature in the system (device quotes).
const chainLabel = "attest-chain-v1"

// ChainDigest folds the signatures of a node's direct children into
// the digest its own signed message chains to. Order matters and is
// part of the contract: children are digested in child-index order, so
// the digest is a pure function of the (ordered) child attestation
// set. No children (a leaf) yields the zero digest.
func ChainDigest(sigs [][]byte) cryptoutil.Digest {
	if len(sigs) == 0 {
		return cryptoutil.Digest{}
	}
	h := sha256.New()
	h.Write([]byte(chainLabel))
	for _, sig := range sigs {
		h.Write(sig)
	}
	var d cryptoutil.Digest
	copy(d[:], h.Sum(nil))
	return d
}

// AppendChainMessage appends the canonical signed message of one
// hierarchy node to dst and returns the extended slice: the domain
// label, the node's summary encoding, and the chain digest of its
// children's signatures. Both signer and verifier build the message
// with this one function, so byte-for-byte agreement is structural.
func AppendChainMessage(dst, body []byte, children cryptoutil.Digest) []byte {
	dst = append(dst, chainLabel...)
	dst = append(dst, body...)
	dst = append(dst, children[:]...)
	return dst
}
