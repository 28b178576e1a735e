package pipeline

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// refRecover is the reference recovery semantics for arbitrary journal
// bytes: the longest prefix of complete, well-formed records wins; the
// first torn or malformed line (including a record-shaped line with no
// newline) ends the prefix.
func refRecover(data []byte) (keys map[string]struct{}, prefix int64) {
	keys = map[string]struct{}{}
	rest := data
	for {
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			return keys, prefix
		}
		line := strings.TrimRight(string(rest[:i]), "\r")
		if !isKeyLine(line) {
			return keys, prefix
		}
		keys[line] = struct{}{}
		prefix += int64(i) + 1
		rest = rest[i+1:]
	}
}

// FuzzJournalRecovery throws arbitrary bytes at the journal's resume
// path and asserts the recovery contract: OpenJournal never fails on
// damage, keeps exactly the longest valid prefix, truncates the file to
// it, and leaves the journal appendable — the torn-tail guarantee the
// distributed coordinator's restart/resume flow rests on.
func FuzzJournalRecovery(f *testing.F) {
	k0 := testKey(0)
	f.Add([]byte{})
	f.Add([]byte(k0 + "\n"))
	f.Add([]byte(k0 + "\n" + testKey(1) + "\n"))
	f.Add([]byte(k0 + "\n" + testKey(1)[:17]))              // torn tail
	f.Add([]byte(k0))                                       // full key, no newline: torn
	f.Add([]byte(k0 + "\r\n"))                              // CRLF record
	f.Add([]byte(k0 + "\nnot a key\n" + k0 + "\n"))         // damage mid-file
	f.Add([]byte(strings.ToUpper(k0) + "\n"))               // wrong case
	f.Add(bytes.Repeat([]byte{0xff}, 100_000))              // long binary garbage, no newline
	f.Add(append(bytes.Repeat([]byte{'a'}, 100_000), '\n')) // over-long "line"
	f.Add([]byte("\n\n\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "sweep.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path, true)
		if err != nil {
			t.Fatalf("OpenJournal must recover from any contents, got: %v", err)
		}
		want, prefix := refRecover(data)
		if j.Len() != len(want) {
			j.Close()
			t.Fatalf("recovered %d keys, want %d", j.Len(), len(want))
		}
		for k := range want {
			if !j.Done(k) {
				j.Close()
				t.Fatalf("key %s lost in recovery", k)
			}
		}
		if fi, err := os.Stat(path); err != nil {
			t.Fatal(err)
		} else if fi.Size() != prefix {
			j.Close()
			t.Fatalf("file is %d bytes after recovery, want prefix %d", fi.Size(), prefix)
		}

		// The healed journal must accept appends on a clean boundary and
		// survive a second resume with nothing lost.
		fresh := testKey(7)
		if err := j.Append(fresh); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j2, err := OpenJournal(path, true)
		if err != nil {
			t.Fatalf("reopen after heal+append: %v", err)
		}
		defer j2.Close()
		if !j2.Done(fresh) {
			t.Fatal("appended key lost across reopen")
		}
		for k := range want {
			if !j2.Done(k) {
				t.Fatalf("recovered key %s lost across reopen", k)
			}
		}
		wantLen := len(want)
		if _, ok := want[fresh]; !ok {
			wantLen++
		}
		if j2.Len() != wantLen {
			t.Fatalf("reopened Len = %d, want %d", j2.Len(), wantLen)
		}
	})
}
