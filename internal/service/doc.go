// Package service is the resident attestation service: the concurrent
// HTTP+JSON shell around the fleet engine, the campaign matrix and the
// experiment registry that answers appraisal, fleet-sweep, campaign
// and topology requests — the long-lived fleet-verifier face of the
// paper's architecture, served by cmd/cresd.
//
// # Model
//
// The engines stay deterministic at any width; the service is a shell
// around them. The shard split is a function of fleet size only; the
// split inside a shard may follow the pool, because it only regroups
// exact curve sums. Every request runs with a request-scoped
// harness.Pool and a request-supplied root seed, and every per-device
// or per-cell quantity derives from (seed, index) exactly as in batch
// mode, so identical requests produce byte-identical response bodies
// — across repeats, across concurrent clients, and across process
// restarts. Host-clock readings never enter a response body (suite
// experiments run with Context.Stable set); cache and digest
// provenance travel in X-Cres-* headers so they cannot perturb the
// byte-identity contract.
//
// # Persistence and resume
//
// When a result store (internal/store) is configured, each
// deterministic response body is recorded under its (experiment,
// seed, config digest) key before it is first served, and later
// identical requests — including requests to a restarted process —
// are answered from the store without recomputing or building an
// engine. Identical requests that miss the store together compute the
// cell once: the first computes and records it, the others wait and
// are served its bytes as hits. A fleet sweep is stored cell-by-cell, so an interrupted
// sweep resumes by computing only the missing sizes. The /results
// endpoint exposes the stored history for querying; cmd/benchdiff
// -store gates it.
//
// # Shutdown
//
// POST /quit (or SIGTERM in cmd/cresd) begins a graceful drain:
// in-flight requests complete, new requests are refused with 503, the
// store is flushed, and Serve returns.
package service
