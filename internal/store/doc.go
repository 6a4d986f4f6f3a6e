// Package store is the persistent result store behind the resident
// attestation service: an append-only JSONL flat file (schema
// cres-store/v1) holding one experiment result per line, keyed by
// (experiment, seed, config digest).
//
// # Model
//
// The paper's fleet verifier is a long-lived service whose appraisal
// history outlives any single run; this package is that history. A
// record's key names *what* was computed — the experiment, the root
// seed, and a digest of the canonical encoding of the compiled
// configuration — so two runs of the same cell at any commit map to
// the same key. Because every experiment in this repository is a pure
// function of its (seed, config) key, a sweep interrupted half-way
// resumes by skipping the keys already on disk, and two records under
// one key must carry byte-identical bodies. Within one commit the
// service's replay and crash-restart checks hold that. Across commits
// nothing recomputes a stored body: a change that alters a body but
// not its digest would be served stale from every existing store
// (ROADMAP item 2).
//
// # Durability contract
//
// A store has one writer. Open takes an exclusive lock on store.jsonl
// (flock, where the platform has it) until Close, so a second cresd
// on a live store fails at start-up instead of writing over records
// the first one acknowledged. A running cresd serves its store's
// records through GET /results.
//
// Append writes one complete JSON line per record and syncs on Close.
// A write that fails part-way (a full disk, a file-size limit) is cut
// back off the file before Append returns the error, so an
// acknowledged record never lands on a fragment; if the cut fails,
// the store refuses every later Append.
// A crash can tear at most the final line; Open tolerates exactly
// that — a trailing record that does not parse (or lacks its newline)
// is dropped and its key reported absent, so the cell is simply
// re-run. A malformed record anywhere *before* the final line is
// corruption, not a torn write, and Open refuses the file rather than
// silently skipping history.
//
// # Digests
//
// Digest hashes the canonical JSON encoding of a configuration value:
// object keys sorted, numbers kept as their literal decimal text, no
// Go-struct field ordering or %v formatting anywhere in the hash
// preimage. DigestBytes hashes an already-canonical byte encoding
// (fleet.Config.AppendCanonical). The digests of every built-in
// scenario are pinned by a test at the repository root, so accidental
// digest churn — which would orphan stored history — is caught in CI.
package store
