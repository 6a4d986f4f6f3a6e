package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func testRecord(exp string, seed int64, digest, body string) Record {
	return Record{Experiment: exp, Seed: seed, Digest: digest, Body: body, NsPerOp: 42}
}

func TestAppendReopenQueryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		testRecord("E8", 7, "aaaa", "fleet body"),
		testRecord("appraise", 7, "bbbb", "appraise body"),
		testRecord("E8", 9, "aaaa", "other seed"),
	}
	for _, r := range recs {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != len(recs) {
		t.Fatalf("reopened Len = %d, want %d", s2.Len(), len(recs))
	}
	for _, want := range recs {
		got, ok := s2.Get(want.Key())
		if !ok {
			t.Fatalf("key %v absent after reopen", want.Key())
		}
		want.Schema = Schema
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, want)
		}
	}
	if got := s2.Keys(); len(got) != 3 {
		t.Fatalf("Keys = %v, want 3 distinct", got)
	}
}

func TestHistoryKeepsEveryRecordLatestWins(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k := Key{Experiment: "E9", Seed: 7, Digest: "cafe"}
	for i, body := range []string{"first", "second", "third"} {
		if err := s.Append(Record{Experiment: k.Experiment, Seed: k.Seed, Digest: k.Digest, Body: body, UnixTime: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got, ok := s.Get(k)
	if !ok || got.Body != "third" {
		t.Fatalf("Get = %+v, want latest body %q", got, "third")
	}
	hist := s.History(k)
	if len(hist) != 3 || hist[0].Body != "first" || hist[2].Body != "third" {
		t.Fatalf("History = %+v, want 3 records oldest-first", hist)
	}
}

func TestAppendRejectsKeylessRecordsAndClosedStore(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Record{Seed: 7, Digest: "dddd"}); err == nil {
		t.Fatal("record without experiment accepted")
	}
	if err := s.Append(Record{Experiment: "E8", Seed: 7}); err == nil {
		t.Fatal("record without digest accepted")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testRecord("E8", 7, "aaaa", "x")); err == nil {
		t.Fatal("append after Close accepted")
	}
	// Reads keep working after Close.
	if s.Len() != 0 {
		t.Fatalf("Len after close = %d", s.Len())
	}
}

func TestOpenRejectsEmptyPathAndFileAsDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("empty path accepted")
	}
	dir := t.TempDir()
	plain := filepath.Join(dir, "plain")
	if err := os.WriteFile(plain, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(plain); err == nil {
		t.Fatal("regular file accepted as store directory")
	}
}

// TestTornFinalRecordTolerated is the crash-resume property test: a
// store file truncated at EVERY byte offset inside its final record
// must open cleanly, report every earlier record intact, report the
// torn key absent, and accept a re-append whose reopened read matches
// — the torn write is re-run, never silently corrupted into history.
func TestTornFinalRecordTolerated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	full := []Record{
		testRecord("E8", 7, "aaaa", "first body"),
		testRecord("E9", 7, "bbbb", "second body"),
		testRecord("fleet", 11, "cccc", "torn body"),
	}
	for _, r := range full {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	path := filepath.Join(dir, FileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the start of the final record.
	lastStart := strings.LastIndex(strings.TrimRight(string(data), "\n"), "\n") + 1

	for cut := lastStart; cut < len(data); cut++ {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("cut at %d/%d: %v", cut, len(data), err)
		}
		if s.Len() != 2 {
			t.Fatalf("cut at %d: Len = %d, want 2", cut, s.Len())
		}
		if s.Has(full[2].Key()) {
			t.Fatalf("cut at %d: torn key still present", cut)
		}
		for _, intact := range full[:2] {
			if !s.Has(intact.Key()) {
				t.Fatalf("cut at %d: intact key %v lost", cut, intact.Key())
			}
		}
		// Re-run the torn cell: append, reopen, read back.
		if err := s.Append(full[2]); err != nil {
			t.Fatalf("cut at %d: re-append: %v", cut, err)
		}
		s.Close()
		s2, err := Open(dir)
		if err != nil {
			t.Fatalf("cut at %d: reopen after repair: %v", cut, err)
		}
		got, ok := s2.Get(full[2].Key())
		if !ok || got.Body != "torn body" {
			t.Fatalf("cut at %d: repaired record = %+v, %v", cut, got, ok)
		}
		if s2.Len() != 3 {
			t.Fatalf("cut at %d: repaired Len = %d", cut, s2.Len())
		}
		s2.Close()
	}
}

// TestTornRecordWithNewlineTolerated covers the other crash shape: the
// final line is complete (newline written) but its JSON is partial.
func TestTornRecordWithNewlineTolerated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testRecord("E8", 7, "aaaa", "body")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	path := filepath.Join(dir, FileName)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"schema":"cres-store/v1","experiment":"E9","se` + "\n")
	f.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("torn-with-newline record rejected: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s2.Len())
	}
}

// TestCorruptInteriorRecordRefused: damage anywhere before the final
// line is corruption — Open must refuse rather than drop history.
func TestCorruptInteriorRecordRefused(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Append(testRecord("E8", 7, "aaaa", "one"))
	s.Append(testRecord("E8", 8, "aaaa", "two"))
	s.Close()
	path := filepath.Join(dir, FileName)
	data, _ := os.ReadFile(path)
	data[2] = 0xff // inside the first record
	os.WriteFile(path, data, 0o644)
	if _, err := Open(dir); err == nil {
		t.Fatal("interior corruption silently accepted")
	}
}

// TestWrongSchemaRefused: a record from a future schema version is not
// quietly reinterpreted.
func TestWrongSchemaRefused(t *testing.T) {
	dir := t.TempDir()
	line, _ := json.Marshal(Record{Schema: "cres-store/v9", Experiment: "E8", Digest: "aaaa"})
	content := append(line, '\n')
	content = append(content, content...) // two bad lines: first is interior
	if err := os.WriteFile(filepath.Join(dir, FileName), content, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("wrong-schema store opened: %v", err)
	}
}

func TestTruncatedTailIsRemovedFromDisk(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Append(testRecord("E8", 7, "aaaa", "keep"))
	s.Close()
	path := filepath.Join(dir, FileName)
	clean, _ := os.ReadFile(path)
	torn := append(append([]byte{}, clean...), []byte(`{"torn":`)...)
	os.WriteFile(path, torn, 0o644)

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Append(testRecord("E9", 7, "bbbb", "next")); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	// The torn fragment must not survive in front of the new record.
	s3, err := Open(dir)
	if err != nil {
		t.Fatalf("store corrupted by append-after-torn-open: %v", err)
	}
	defer s3.Close()
	if s3.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s3.Len())
	}
}

// TestAppendRefusedAfterFailedRollback covers a failed append whose
// fragment cannot be cut back off: the store must refuse every later
// append, naming itself, rather than join a record onto the fragment.
// A read-only descriptor fails both the write and the truncate.
func TestAppendRefusedAfterFailedRollback(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append(testRecord("E8", 1, "aaaa", "kept")); err != nil {
		t.Fatal(err)
	}
	rw := s.f
	ro, err := os.Open(filepath.Join(dir, FileName))
	if err != nil {
		t.Fatal(err)
	}
	s.f = ro
	err = s.Append(testRecord("E8", 2, "aaaa", "failed"))
	s.f = rw
	ro.Close()
	if err == nil {
		t.Fatal("append through a read-only descriptor succeeded")
	}
	err = s.Append(testRecord("E8", 3, "aaaa", "refused"))
	if err == nil || !strings.Contains(err.Error(), dir) {
		t.Fatalf("append after a failed rollback: %v, want a refusal naming %s", err, dir)
	}
	if s.Len() != 1 {
		t.Fatalf("store holds %d records, want 1", s.Len())
	}
}
