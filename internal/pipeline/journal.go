package pipeline

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
)

// Journal is the write-ahead sweep journal: one cache key per line,
// appended (and fsynced) the moment a spec's artifact lands. After a
// crash or an interrupt, reopening the journal in resume mode replays the
// recorded keys so finished work is recognized without re-simulation —
// the disk cache holds the artifacts, the journal holds the proof of
// completion.
//
// Appends are atomic at the filesystem level: each record is a single
// short write to an O_APPEND descriptor, well under PIPE_BUF, so
// concurrent workers never interleave partial lines. A torn final line
// from a crash mid-write is detected on open and truncated away.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
	done map[string]struct{}
}

// isKeyLine accepts exactly the journal's record shape: a lowercase-hex
// SHA-256 cache key. Anything else is damage and is discarded on open.
func isKeyLine(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// OpenJournal opens (creating if needed) the sweep journal at path. With
// resume true, previously recorded keys are loaded and reported by Done;
// otherwise the journal is truncated and the sweep starts fresh.
//
// Recovery is total over the file's contents: the longest prefix of
// complete, well-formed records is kept and everything after it — a torn
// final line from a crash mid-append, arbitrary corruption of any length,
// even a record-shaped line missing its newline (the append protocol
// always writes one, so its absence means the write was cut) — is
// truncated away. No journal contents can make resume fail; only a real
// I/O error can.
//
//lint:allow ctxflow opening the journal is one bounded open+scan of a local file; the sweep ctx governs the replay work, not this setup step
func OpenJournal(path string, resume bool) (*Journal, error) {
	flags := os.O_RDWR | os.O_CREATE
	if !resume {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pipeline: journal: %w", err)
	}
	j := &Journal{f: f, path: path, done: map[string]struct{}{}}
	if !resume {
		return j, nil
	}

	// Replay with a plain delimiter reader, not a Scanner: a Scanner
	// errors out on an over-long corrupt line, and recovery must never
	// error on damage.
	r := bufio.NewReader(f)
	valid := int64(0)
	for {
		rec, err := r.ReadString('\n')
		if err == io.EOF {
			// A record without its terminator is a torn tail, however
			// plausible its bytes look.
			break
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("pipeline: journal: %w", err)
		}
		line := strings.TrimRight(rec, "\r\n")
		if !isKeyLine(line) {
			break
		}
		j.done[line] = struct{}{}
		valid += int64(len(rec))
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, fmt.Errorf("pipeline: journal: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("pipeline: journal: %w", err)
	}
	return j, nil
}

// Done reports whether key was recorded as completed (in this run or, in
// resume mode, a previous one).
func (j *Journal) Done(key string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	_, ok := j.done[key]
	return ok
}

// Len returns the number of recorded keys.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// Append records key as completed and syncs the record to disk. Appending
// an already recorded key is a no-op.
func (j *Journal) Append(key string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.done[key]; ok {
		return nil
	}
	if _, err := j.f.WriteString(key + "\n"); err != nil {
		return fmt.Errorf("pipeline: journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("pipeline: journal: %w", err)
	}
	j.done[key] = struct{}{}
	return nil
}

// Close flushes and closes the journal file. The Journal must not be used
// afterwards.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
