package pipeline

import (
	"archive/zip"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"commchar/internal/apps"
	"commchar/internal/ccnuma"
	"commchar/internal/core"
	"commchar/internal/fault"
	"commchar/internal/mesh"
	"commchar/internal/spasm"
	"commchar/internal/trace"
)

// wireFuzzArtifact is a small but fully populated artifact: a real
// delivery log and trace, coherence stats, profiles, and fault counters,
// so the seed corpus covers every member and field the codec serializes.
func wireFuzzArtifact() *Artifact {
	log := []mesh.Delivery{
		{ID: 1, Src: 0, Dst: 1, Bytes: 64, Inject: 10, End: 30, Blocked: 0, Hops: 1},
		{ID: 2, Src: 1, Dst: 0, Bytes: 128, Inject: 40, End: 90, Blocked: 5, Hops: 2},
	}
	tr := trace.New(2)
	tr.Add(0, trace.Event{Op: trace.OpSend, Peer: 1, Bytes: 64, Compute: 10})
	tr.Add(1, trace.Event{Op: trace.OpRecv, Peer: 0})
	return &Artifact{
		C: &core.Characterization{
			Name: "FZ", Strategy: core.StrategyStatic, Procs: 2,
			Messages: len(log), TotalBytes: 192, Elapsed: 90,
			Log: log, Trace: tr,
		},
		MemStats:      &ccnuma.Stats{Upgrades: 7, SilentUpgrades: 3},
		Profiles:      []spasm.Profile{{Compute: 100, Memory: 20, Sync: 5, End: 125}},
		Failures:      []string{"msg 9: dropped"},
		FaultCounters: fault.Counters{Drops: 2, Corruptions: 1},
	}
}

// member is one archive member, for building damaged archives.
type member struct {
	name string
	data []byte
}

// membersOf unpacks an archive.
func membersOf(tb testing.TB, data []byte) []member {
	tb.Helper()
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		tb.Fatal(err)
	}
	var ms []member
	for _, f := range zr.File {
		rc, err := f.Open()
		if err != nil {
			tb.Fatal(err)
		}
		b, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			tb.Fatal(err)
		}
		ms = append(ms, member{f.Name, b})
	}
	return ms
}

// zipOf packs members into a stored archive with correct checksums, so
// the decoder has to catch the damage in the content itself.
func zipOf(tb testing.TB, ms []member) []byte {
	tb.Helper()
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	for _, m := range ms {
		w, err := zw.CreateHeader(&zip.FileHeader{Name: m.name, Method: zip.Store})
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := w.Write(m.data); err != nil {
			tb.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// editMeta re-packs an archive with its metadata rewritten by edit.
func editMeta(tb testing.TB, data []byte, edit func(m *entryMeta)) []byte {
	tb.Helper()
	ms := membersOf(tb, data)
	var meta entryMeta
	if err := json.Unmarshal(ms[0].data, &meta); err != nil {
		tb.Fatal(err)
	}
	edit(&meta)
	b, err := json.Marshal(meta)
	if err != nil {
		tb.Fatal(err)
	}
	ms[0].data = b
	return zipOf(tb, ms)
}

// flipLogDigit returns a copy of an archive with one digit of the log
// member's first record changed in place, leaving the member's checksum
// stale. The damaged log still parses; only the CRC-32 tells.
func flipLogDigit(tb testing.TB, data []byte) []byte {
	tb.Helper()
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		tb.Fatal(err)
	}
	for _, f := range zr.File {
		if f.Name != logMember {
			continue
		}
		off, err := f.DataOffset()
		if err != nil {
			tb.Fatal(err)
		}
		i := int(off) + bytes.IndexByte(data[off:], '\n') + 1 // first record
		out := bytes.Clone(data)
		out[i] = '0' + (out[i]-'0'+1)%10
		return out
	}
	tb.Fatal("no log member")
	return nil
}

// FuzzUnmarshalArtifact throws arbitrary bytes at the artifact decoder —
// the disk cache's load path and the dist transfer path — and asserts its
// contract: UnmarshalArtifact never panics and never returns a partial
// decode — every truncated, corrupt, or version-skewed payload is an
// error, and every accepted payload decodes to an artifact that
// re-marshals and round-trips stably. It guards the cache, the
// worker→coordinator and the blob-store transfer paths.
func FuzzUnmarshalArtifact(f *testing.F) {
	valid, err := MarshalArtifact(wireFuzzArtifact())
	if err != nil {
		f.Fatal(err)
	}
	// edit re-packs valid with one member rewritten by fn; a nil result
	// drops the member.
	edit := func(name string, fn func([]byte) []byte) []byte {
		var ms []member
		for _, m := range membersOf(f, valid) {
			if m.name == name {
				if m.data = fn(m.data); m.data == nil {
					continue
				}
			}
			ms = append(ms, m)
		}
		return zipOf(f, ms)
	}
	drop := func([]byte) []byte { return nil }
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated mid-archive
	f.Add(valid[:17])           // truncated in the first header
	f.Add(flipLogDigit(f, valid))
	f.Add([]byte{})
	f.Add([]byte(`{"Meta":{}}`))    // the retired JSON transfer form
	f.Add([]byte("\x00\xff\x00\n")) // binary garbage
	f.Add(edit(logMember, drop))
	// Version-skew shapes: a delivery count that disagrees with the log,
	// a trace promised but not shipped, a machine size other than the
	// spec's (which once panicked the trace reader).
	f.Add(editMeta(f, valid, func(m *entryMeta) { m.Messages++ }))
	f.Add(editMeta(f, valid, func(m *entryMeta) { m.Messages = 1 << 40 })) // must not size the log
	f.Add(edit(traceMember, drop))
	f.Add(editMeta(f, valid, func(m *entryMeta) { m.C.Procs = -4 }))
	f.Add(edit(metaMember, func([]byte) []byte { return []byte("{not json") }))
	f.Add(edit(metaMember, func([]byte) []byte { return []byte(`{"C":null}`) }))
	f.Add(edit(logMember, func(b []byte) []byte { return b[:len(b)-3] })) // log cut mid-record
	f.Add(zipOf(f, append(membersOf(f, valid), member{"extra", []byte("x")})))

	spec := RunSpec{App: "FZ", Procs: 2, Scale: apps.ScaleSmall}
	key := fmt.Sprintf("%064x", 0xabc0)
	f.Fuzz(func(t *testing.T, data []byte) {
		art, err := UnmarshalArtifact(data, spec, key)
		if err != nil {
			if art != nil {
				t.Fatal("error with non-nil artifact: a failed decode must not leak a partial artifact")
			}
			return
		}
		// Accepted payloads must be internally consistent and must
		// round-trip: re-marshal succeeds and a second decode agrees
		// with the first, so a relayed blob (worker → coordinator →
		// another worker's store fetch) cannot drift.
		if art.C == nil {
			t.Fatal("accepted artifact has no characterization")
		}
		if !reflect.DeepEqual(art.Spec, spec) || art.Key != key {
			t.Fatalf("spec/key not taken from the caller: %+v %q", art.Spec, art.Key)
		}
		again, err := MarshalArtifact(art)
		if err != nil {
			t.Fatalf("accepted artifact does not re-marshal: %v", err)
		}
		art2, err := UnmarshalArtifact(again, spec, key)
		if err != nil {
			t.Fatalf("re-marshaled artifact does not decode: %v", err)
		}
		if !reflect.DeepEqual(art, art2) {
			t.Fatal("decode → marshal → decode is not a fixed point")
		}
	})
}

// TestLyingMessageCountAllocatesLittle: metadata that claims 1<<40
// deliveries over a small archive is rejected for the count mismatch, and
// the decode allocates at most 32 times the archive's size. The log is
// sized from the metadata, so without the cap on that size the lie alone
// would ask for 96 TiB. With it, decoding this archive costs about 17
// times its size in fixed overhead (zip directory, JSON, read buffer),
// and the capped log under 6 times more: a 96-byte mesh.Delivery per
// trace.MinDeliveryRow bytes.
func TestLyingMessageCountAllocatesLittle(t *testing.T) {
	valid, err := MarshalArtifact(wireFuzzArtifact())
	if err != nil {
		t.Fatal(err)
	}
	blob := editMeta(t, valid, func(m *entryMeta) { m.Messages = 1 << 40 })
	spec := RunSpec{App: "FZ", Procs: 2, Scale: apps.ScaleSmall}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = UnmarshalArtifact(blob, spec, fmt.Sprintf("%064x", 0xabc0))
	runtime.ReadMemStats(&after)
	if want := fmt.Sprintf("2 deliveries, metadata says %d", 1<<40); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("got error %v, want one containing %q", err, want)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, 32*uint64(len(blob)); got > limit {
		t.Fatalf("decode allocated %d bytes for a %d-byte archive, want at most %d", got, len(blob), limit)
	}
}

// TestDiskEntryIsWireBlob pins the one-format contract: a cold run's disk
// entry is byte for byte the artifact's serialization, and decoding and
// re-encoding it reproduces those bytes — so a blob relayed through the
// coordinator, the shared store and another worker's cache never drifts.
func TestDiskEntryIsWireBlob(t *testing.T) {
	for _, spec := range []RunSpec{
		{App: "3D-FFT", Procs: 4, Scale: apps.ScaleSmall}, // static: trace member
		{App: "IS", Procs: 4, Scale: apps.ScaleSmall},     // dynamic: machine stats
	} {
		t.Run(spec.App, func(t *testing.T) {
			dir := t.TempDir()
			e, err := New(Options{Parallel: 1, CacheDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			art, err := e.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			entry, err := os.ReadFile(filepath.Join(dir, art.Key[:2], art.Key+".zip"))
			if err != nil {
				t.Fatal(err)
			}
			blob, err := MarshalArtifact(art)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(entry, blob) {
				t.Fatalf("disk entry (%d bytes) differs from MarshalArtifact (%d bytes)", len(entry), len(blob))
			}
			decoded, err := UnmarshalArtifact(entry, spec, art.Key)
			if err != nil {
				t.Fatal(err)
			}
			again, err := MarshalArtifact(decoded)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, entry) {
				t.Fatal("decode → encode does not reproduce the entry's bytes")
			}
		})
	}
}

// TestDamagedArtifactIsRejected: each damage is an error from
// UnmarshalArtifact and a miss from the disk cache — never a panic, never
// a silently different artifact — and the fallback run heals the entry.
// The processor-count case once crashed the process: the trace reader
// sized its rank table from the stored count, outside any recovery
// boundary.
func TestDamagedArtifactIsRejected(t *testing.T) {
	spec := RunSpec{App: "3D-FFT", Procs: 4, Scale: apps.ScaleSmall}
	damage := []struct {
		name string
		fn   func(tb testing.TB, entry []byte) []byte
	}{
		{"log byte flipped", flipLogDigit},
		{"truncated", func(_ testing.TB, entry []byte) []byte { return entry[:len(entry)-1] }},
		{"malformed meta", func(tb testing.TB, entry []byte) []byte {
			ms := membersOf(tb, entry)
			ms[0].data = ms[0].data[:len(ms[0].data)/2]
			return zipOf(tb, ms)
		}},
		{"procs mismatch", func(tb testing.TB, entry []byte) []byte {
			return editMeta(tb, entry, func(m *entryMeta) { m.C.Procs = -4 })
		}},
	}
	for _, d := range damage {
		t.Run(d.name, func(t *testing.T) {
			dir := t.TempDir()
			e1, err := New(Options{Parallel: 1, CacheDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			art, err := e1.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := MarshalArtifact(art)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := UnmarshalArtifact(d.fn(t, blob), spec, art.Key); err == nil {
				t.Fatal("UnmarshalArtifact accepted the damaged artifact")
			}

			damageEntry(t, dir, art.Key, d.fn)
			for _, want := range []Source{SourceRun, SourceDisk} { // miss, then healed
				e, err := New(Options{Parallel: 1, CacheDir: dir})
				if err != nil {
					t.Fatal(err)
				}
				got, err := e.Run(spec)
				if err != nil {
					t.Fatal(err)
				}
				if got.Source != want {
					t.Fatalf("source = %q, want %q", got.Source, want)
				}
				if !reflect.DeepEqual(got.C, art.C) {
					t.Fatal("characterization differs from the original run")
				}
			}
		})
	}
}

// TestFlippedLogDigitStillParses keeps the CRC cases honest: the damage
// flipLogDigit does leaves a log of the same length that parses cleanly,
// so only the member checksum can reject it.
func TestFlippedLogDigitStillParses(t *testing.T) {
	valid, err := MarshalArtifact(wireFuzzArtifact())
	if err != nil {
		t.Fatal(err)
	}
	zr, err := zip.NewReader(bytes.NewReader(flipLogDigit(t, valid)), int64(len(valid)))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range zr.File {
		if f.Name != logMember {
			continue
		}
		raw, err := f.OpenRaw() // the stored bytes, unchecked
		if err != nil {
			t.Fatal(err)
		}
		log, err := trace.ReadDeliveries(raw, 0)
		if err != nil || len(log) != len(wireFuzzArtifact().C.Log) {
			t.Fatalf("flipped log: %d deliveries, err %v", len(log), err)
		}
		if reflect.DeepEqual(log, wireFuzzArtifact().C.Log) {
			t.Fatal("flipLogDigit left the log unchanged")
		}
		return
	}
	t.Fatal("no log member")
}
