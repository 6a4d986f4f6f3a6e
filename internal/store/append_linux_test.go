//go:build linux

package store

import (
	"encoding/json"
	"os/signal"
	"reflect"
	"strings"
	"syscall"
	"testing"
)

// paddedRecord returns a record whose stored line, newline included,
// is n bytes long.
func paddedRecord(t *testing.T, seed int64, n int) Record {
	t.Helper()
	rec := Record{Schema: Schema, Experiment: "appraise", Seed: seed, Digest: "cafe"}
	line, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	rec.Body = strings.Repeat("x", n-len(line)-1)
	return rec
}

// TestFailedAppendLosesNoLaterRecord makes a real short write: with a
// 500-byte file-size limit and SIGXFSZ ignored, the second 300-byte
// record stops part-way with "file too large". Append must cut the
// fragment back off, so that once the limit is lifted the third record
// starts on a clean line and is still there after a reopen. A store
// that left the fragment in place joined the third record onto it, and
// reopening dropped the pair as a torn tail.
func TestFailedAppendLosesNoLaterRecord(t *testing.T) {
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	if old.Cur < 1<<20 {
		t.Skipf("file-size limit already %d bytes", old.Cur)
	}
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	recs := []Record{paddedRecord(t, 1, 300), paddedRecord(t, 2, 300), paddedRecord(t, 3, 300)}

	signal.Ignore(syscall.SIGXFSZ)
	defer signal.Reset(syscall.SIGXFSZ)
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &syscall.Rlimit{Cur: 500, Max: old.Max}); err != nil {
		t.Fatal(err)
	}
	defer syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old)

	if err := s.Append(recs[0]); err != nil {
		t.Fatalf("first append: %v", err)
	}
	if err := s.Append(recs[1]); err == nil || !strings.Contains(err.Error(), "file too large") {
		t.Fatalf("second append past the limit: %v, want a file-too-large error", err)
	}
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(recs[2]); err != nil {
		t.Fatalf("third append after lifting the limit: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 2 {
		t.Fatalf("reopened store holds %d records, want 2 (the first and third)", s2.Len())
	}
	for _, want := range []Record{recs[0], recs[2]} {
		if got, ok := s2.Get(want.Key()); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("acknowledged record %v after reopen: %+v (present %v)", want.Key(), got, ok)
		}
	}
	if s2.Has(recs[1].Key()) {
		t.Fatal("the failed append's record is in the reopened store")
	}
}
