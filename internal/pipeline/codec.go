package pipeline

import (
	"archive/zip"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"commchar/internal/ccnuma"
	"commchar/internal/core"
	"commchar/internal/fault"
	"commchar/internal/spasm"
	"commchar/internal/trace"
)

// An artifact has one serialized form: a stored (uncompressed) zip
// archive with these members, in this order:
//
//	meta.json   entryMeta: the characterization, machine stats, and
//	            integrity counts
//	log.csv     the network delivery log (trace.WriteDeliveries format)
//	trace.csv   the application trace (static strategy only)
//
// The same bytes are the disk cache entry and the worker→coordinator
// completion (see internal/dist). The characterization is stored in
// full — distribution fits included, via the family-tagged codec in
// internal/stats — so a load skips both the simulate and the analyze
// stage; only the bulky row data lives outside the JSON. A decoded
// artifact is byte-identical to the original, which
// keeps warm and distributed sweeps byte-identical to a cold local one.
// The encoder writes a fixed member order and no timestamps, so
// re-encoding a decoded artifact reproduces its bytes.
const (
	metaMember  = "meta.json"
	logMember   = "log.csv"
	traceMember = "trace.csv"
)

// entryMeta is the JSON body of the meta.json member.
type entryMeta struct {
	// C is the characterization with Log and Trace stripped; they are
	// rehydrated from the CSV members.
	C *core.Characterization
	// Messages is the delivery count; a log that parses short is
	// rejected against it.
	Messages int
	HasTrace bool

	MemStats      *ccnuma.Stats   `json:",omitempty"`
	Profiles      []spasm.Profile `json:",omitempty"`
	Failures      []string        `json:",omitempty"`
	FaultCounters fault.Counters
}

// MarshalArtifact serializes an artifact. The artifact must carry a
// characterization (failed specs produce no artifact and are reported
// through the failure path instead).
func MarshalArtifact(a *Artifact) ([]byte, error) {
	var buf bytes.Buffer
	if err := a.encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// encode streams the artifact's serialization to w.
func (a *Artifact) encode(w io.Writer) (err error) {
	defer wrapErr(&err, "pipeline: marshal artifact")
	if a == nil || a.C == nil {
		return errors.New("no characterization")
	}
	slim := *a.C
	slim.Log, slim.Trace = nil, nil
	meta, err := json.Marshal(entryMeta{
		C:             &slim,
		Messages:      len(a.C.Log),
		HasTrace:      a.C.Trace != nil,
		MemStats:      a.MemStats,
		Profiles:      a.Profiles,
		Failures:      a.Failures,
		FaultCounters: a.FaultCounters,
	})
	if err != nil {
		return err
	}
	zw := zip.NewWriter(w)
	member := func(name string) (io.Writer, error) {
		// A zero Modified time writes no timestamp at all.
		return zw.CreateHeader(&zip.FileHeader{Name: name, Method: zip.Store})
	}
	mw, err := member(metaMember)
	if err == nil {
		_, err = mw.Write(meta)
	}
	if err == nil {
		mw, err = member(logMember)
	}
	if err == nil {
		err = trace.WriteDeliveries(mw, a.C.Log)
	}
	if err == nil && a.C.Trace != nil {
		if mw, err = member(traceMember); err == nil {
			err = a.C.Trace.WriteCSV(mw)
		}
	}
	if err != nil {
		return err
	}
	return zw.Close()
}

// wrapErr prefixes a non-nil *err with the operation's name.
func wrapErr(err *error, op string) {
	if *err != nil {
		*err = fmt.Errorf("%s: %w", op, *err)
	}
}

// UnmarshalArtifact decodes a serialized artifact for the given spec and
// cache key (the receiver knows both; they are not round-tripped). The
// caller sets Source.
func UnmarshalArtifact(data []byte, spec RunSpec, key string) (*Artifact, error) {
	return decodeArtifact(bytes.NewReader(data), int64(len(data)), spec, key)
}

// decodeArtifact decodes the size-byte archive in r. Any inconsistency —
// a damaged archive, a member that fails its CRC-32, malformed JSON or
// CSV, a delivery count that disagrees with the metadata, a machine size
// other than the spec's — is an error: a damaged entry or a partial
// transfer must never masquerade as the run it describes.
func decodeArtifact(r io.ReaderAt, size int64, spec RunSpec, key string) (_ *Artifact, err error) {
	defer wrapErr(&err, "pipeline: unmarshal artifact")
	zr, err := zip.NewReader(r, size)
	if err != nil {
		return nil, err
	}
	// Exactly the members the encoder writes, in its order, uncompressed.
	members := zr.File
	if len(members) < 2 || len(members) > 3 {
		return nil, fmt.Errorf("%d members", len(members))
	}
	for i, f := range members {
		if f.Name != [...]string{metaMember, logMember, traceMember}[i] || f.Method != zip.Store {
			return nil, fmt.Errorf("unexpected member %q", f.Name)
		}
	}

	var meta entryMeta
	if err := readMember(members[0], func(r io.Reader) error {
		data, err := io.ReadAll(r)
		if err != nil {
			return err
		}
		return json.Unmarshal(data, &meta)
	}); err != nil {
		return nil, err
	}
	c := meta.C
	switch {
	case c == nil:
		return nil, errors.New("no characterization")
	case c.Procs != spec.Procs:
		// Every acquisition sizes the characterization from the spec;
		// the trace reader below trusts the size.
		return nil, fmt.Errorf("characterization of %d processors for a %d-processor spec", c.Procs, spec.Procs)
	case meta.HasTrace != (len(members) == 3):
		return nil, fmt.Errorf("metadata says trace %t, archive disagrees", meta.HasTrace)
	}

	// The log is allocated once, at the size the metadata records, but
	// never at more rows than the archive has bytes for: lying metadata
	// cannot force a large allocation.
	hint := min(meta.Messages, int(size/trace.MinDeliveryRow))
	if err := readMember(members[1], func(r io.Reader) (err error) {
		c.Log, err = trace.ReadDeliveries(r, hint)
		return err
	}); err != nil {
		return nil, err
	}
	if len(c.Log) != meta.Messages {
		return nil, fmt.Errorf("%d deliveries, metadata says %d", len(c.Log), meta.Messages)
	}
	if meta.HasTrace {
		if err := readMember(members[2], func(r io.Reader) (err error) {
			c.Trace, err = trace.ReadCSV(r, c.Procs)
			return err
		}); err != nil {
			return nil, err
		}
	}
	return &Artifact{
		Spec:          spec,
		Key:           key,
		C:             c,
		MemStats:      meta.MemStats,
		Profiles:      meta.Profiles,
		Failures:      meta.Failures,
		FaultCounters: meta.FaultCounters,
	}, nil
}

// readMember streams member f through parse, then reads it to EOF so that
// its CRC-32 is checked even when parse stopped early: a damaged member
// fails here even if its bytes still parse.
func readMember(f *zip.File, parse func(io.Reader) error) error {
	rc, err := f.Open()
	if err != nil {
		return err
	}
	defer rc.Close()
	if err := parse(rc); err != nil {
		return fmt.Errorf("%s: %w", f.Name, err)
	}
	if _, err := io.Copy(io.Discard, rc); err != nil {
		return fmt.Errorf("%s: %w", f.Name, err)
	}
	return nil
}
