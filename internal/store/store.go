package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Schema is the record schema version every stored line carries.
const Schema = "cres-store/v1"

// FileName is the JSONL file a store keeps inside its directory.
const FileName = "store.jsonl"

// Key identifies one stored cell: which experiment, at which root
// seed, under which compiled configuration.
type Key struct {
	// Experiment is the cell's experiment or endpoint name, e.g. "E8"
	// or "appraise".
	Experiment string
	// Seed is the cell's root seed.
	Seed int64
	// Digest is the canonical-config digest (see Digest/DigestBytes).
	Digest string
}

// String renders the key as "experiment/seed/digest".
func (k Key) String() string {
	return fmt.Sprintf("%s/%d/%s", k.Experiment, k.Seed, k.Digest)
}

// Record is one stored result line.
type Record struct {
	// Schema is always the package Schema constant; Append fills it.
	Schema string `json:"schema"`
	// Experiment, Seed and Digest form the record's key.
	Experiment string `json:"experiment"`
	Seed       int64  `json:"seed"`
	Digest     string `json:"config_digest"`
	// Body is the stored result: for service endpoints the exact
	// response body bytes, for suite experiments the rendered blocks
	// joined by newlines. Identical keys must store identical bodies —
	// the cross-commit determinism invariant.
	Body string `json:"body"`
	// NsPerOp optionally records the host-CPU cost of computing the
	// cell. Provenance only: never part of the key and never expected
	// to repeat across hosts.
	NsPerOp float64 `json:"ns_per_op,omitempty"`
	// UnixTime optionally records when the cell was computed.
	// Provenance only, like NsPerOp.
	UnixTime int64 `json:"unix_time,omitempty"`
}

// Key returns the record's store key.
func (r Record) Key() Key {
	return Key{Experiment: r.Experiment, Seed: r.Seed, Digest: r.Digest}
}

// Store is an append-only JSONL result store. All methods are safe for
// concurrent use.
type Store struct {
	mu      sync.Mutex
	dir     string
	f       *os.File
	records []Record
	// index maps a key to the positions of its records in append order.
	index map[Key][]int
	// end is the file offset just past the last complete record: where
	// the next Append writes, and where a failed one is cut back to.
	end int64
	// broken is set when a failed Append could not be cut back; every
	// later Append then fails with it.
	broken error
}

// Open opens (creating if needed) the store rooted at dir. The
// directory and its store.jsonl file are created when absent. A torn
// final record — the residue of a crash mid-Append — is dropped and
// the file truncated back to the last complete record; a malformed
// record before the final line is corruption and fails Open.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory path")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	path := filepath.Join(dir, FileName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, f: f, index: make(map[Key][]int)}
	if err := s.load(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// load scans the JSONL file, building the in-memory index, and
// truncates a torn final record so the next Append starts on a clean
// line boundary.
func (s *Store) load() error {
	data, err := os.ReadFile(filepath.Join(s.dir, FileName))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	good := 0 // byte offset of the end of the last complete, valid record
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			// Final line has no newline: a torn write. Drop it.
			break
		}
		line := data[off : off+nl]
		rec, err := decodeRecord(line)
		if err != nil {
			if off+nl+1 == len(data) {
				// The final complete line is malformed — also tolerated as
				// a torn write (the crash can land after the newline of a
				// partially flushed buffer).
				break
			}
			return fmt.Errorf("store: corrupt record at byte %d (not the final line): %w", off, err)
		}
		s.append(rec)
		off += nl + 1
		good = off
	}
	if good < len(data) {
		// Truncate the torn tail so the dropped cell is re-runnable and
		// the next Append cannot splice onto a partial line.
		if err := s.f.Truncate(int64(good)); err != nil {
			return fmt.Errorf("store: truncating torn record: %w", err)
		}
	}
	end, err := s.f.Seek(0, io.SeekEnd)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.end = end
	return nil
}

// decodeRecord parses and validates one JSONL line.
func decodeRecord(line []byte) (Record, error) {
	var rec Record
	if err := json.Unmarshal(line, &rec); err != nil {
		return rec, err
	}
	if rec.Schema != Schema {
		return rec, fmt.Errorf("schema %q, want %q", rec.Schema, Schema)
	}
	if rec.Experiment == "" || rec.Digest == "" {
		return rec, fmt.Errorf("record lacks experiment or config_digest")
	}
	return rec, nil
}

// append indexes one record (caller holds the lock or is single-owner).
func (s *Store) append(rec Record) {
	k := rec.Key()
	s.index[k] = append(s.index[k], len(s.records))
	s.records = append(s.records, rec)
}

// Dir returns the directory the store lives in.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of stored records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.records)
}

// Append validates, persists and indexes one record. The record's
// Schema field is filled in; Experiment and Digest must be non-empty.
// Appending a key that already exists records history — Get returns
// the latest record, History all of them. A write that fails part-way
// is cut back off the file, so the record is absent and the next
// Append starts on a clean line; if the cut itself fails, the store
// refuses every later Append.
func (s *Store) Append(rec Record) error {
	rec.Schema = Schema
	if rec.Experiment == "" || rec.Digest == "" {
		return fmt.Errorf("store: record needs an experiment and a config digest")
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	line = append(line, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("store: closed")
	}
	if s.broken != nil {
		return s.broken
	}
	if _, err := s.f.Write(line); err != nil {
		s.rollback()
		return fmt.Errorf("store: %w", err)
	}
	s.end += int64(len(line))
	s.append(rec)
	return nil
}

// rollback cuts a failed append's partial line off the file and puts
// the write offset back at the end of the last complete record. When
// either step fails, the file may still hold the fragment, and a later
// record would be joined onto it, so the store is marked broken
// (caller holds the lock).
func (s *Store) rollback() {
	err := s.f.Truncate(s.end)
	if err == nil {
		_, err = s.f.Seek(s.end, io.SeekStart)
	}
	if err != nil {
		s.broken = fmt.Errorf("store %s: appends refused: rolling back a failed append: %w", s.dir, err)
	}
}

// Get returns the latest record stored under key.
func (s *Store) Get(k Key) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pos := s.index[k]
	if len(pos) == 0 {
		return Record{}, false
	}
	return s.records[pos[len(pos)-1]], true
}

// Has reports whether any record is stored under key.
func (s *Store) Has(k Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index[k]) > 0
}

// History returns every record stored under key, oldest first.
func (s *Store) History(k Key) []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	pos := s.index[k]
	out := make([]Record, len(pos))
	for i, p := range pos {
		out[i] = s.records[p]
	}
	return out
}

// Keys returns the distinct stored keys in first-appearance order.
func (s *Store) Keys() []Key {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[Key]bool, len(s.index))
	var out []Key
	for _, rec := range s.records {
		k := rec.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// Sync flushes the store file to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	return s.f.Sync()
}

// Close syncs and closes the store file. Further Appends fail; reads
// keep working from the in-memory index.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}
