package pipeline

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
)

// diskCache is the content-addressed on-disk artifact store. Each entry is
// one file holding the artifact's serialization (see MarshalArtifact): the
// same bytes the dist protocol carries, so a coordinator's cache is its
// fleet's shared store. An unusable entry (unreadable, a damaged archive,
// a member that fails its checksum, mismatched counts) reads as a miss,
// and the run falls back to simulation, whose store then heals the entry.
type diskCache struct {
	dir string
}

func newDiskCache(dir string) (*diskCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("pipeline: cache dir: %w", err)
	}
	return &diskCache{dir: dir}, nil
}

// path returns the entry file for a key, <dir>/<key[:2]>/<key>.zip. The
// suffix keeps it clear of an older layout's entry directory of the same
// key, which then just reads as a miss.
func (d *diskCache) path(key string) string {
	return filepath.Join(d.dir, key[:2], key+".zip")
}

// load reads and decodes an entry. An absent entry returns (nil, nil).
// One that is present but cannot be read or decoded returns its error
// and is removed, so the run's store can replace it (a rename cannot
// replace a directory). Either is a miss.
func (d *diskCache) load(key string, spec RunSpec) (art *Artifact, err error) {
	f, err := os.Open(d.path(key))
	if errors.Is(err, fs.ErrNotExist) || errors.Is(err, syscall.ENOTDIR) {
		return nil, nil
	}
	defer func() {
		if err != nil {
			os.RemoveAll(d.path(key))
		}
	}()
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	art, err = decodeArtifact(f, fi.Size(), spec, key)
	if err != nil {
		return nil, err
	}
	art.Source = SourceDisk
	return art, nil
}

// store publishes an entry atomically: write fills a temp file, and one
// rename puts it in place. A rename replaces a file atomically and every
// writer of one key writes the same bytes, so concurrent stores of a key
// need no coordination. There is no fsync: an entry a crash leaves
// half-written fails its checksums and reads as a miss.
func (d *diskCache) store(key string, write func(io.Writer) error) error {
	final := d.path(key)
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(d.dir, "tmp-")
	if err != nil {
		return err
	}
	err = write(tmp)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), final)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("pipeline: cache store %s: %w", key[:12], err)
	}
	return nil
}
