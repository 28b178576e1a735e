package trace

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime/debug"
	"strconv"
	"testing"

	"commchar/internal/mesh"
	"commchar/internal/sim"
)

// recordReader streams CSV records one at a time, tracking the line number
// and the byte offset of the last cleanly consumed record.
type recordReader struct {
	cr     *csv.Reader
	record int   // records read so far (including the header)
	offset int64 // input offset after the last good record
	prev   int64 // input offset before the last good record
}

func newRecordReader(r io.Reader) *recordReader {
	cr := csv.NewReader(r)
	// Field counts are validated by the caller, not by the csv layer.
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	return &recordReader{cr: cr}
}

// next returns the following record. On a structural CSV error (bare
// quote, unterminated field, ...) it returns a *TruncatedError.
func (rr *recordReader) next() ([]string, error) {
	row, err := rr.cr.Read()
	if err == io.EOF {
		return nil, io.EOF
	}
	if err != nil {
		line := rr.record + 1
		var pe *csv.ParseError
		if errors.As(err, &pe) {
			line = pe.Line
		}
		return nil, &TruncatedError{Line: line, Offset: rr.offset, Err: err}
	}
	rr.record++
	rr.prev = rr.offset
	rr.offset = rr.cr.InputOffset()
	return row, nil
}

// truncatedIfLast classifies a bad-length record: if it is the last record
// of the input it is a truncation (salvageable), otherwise a hard format
// error.
func (rr *recordReader) truncatedIfLast(got int, want string) error {
	// The offending record was structurally valid CSV, so next() already
	// advanced past it; the salvageable prefix ends before it.
	line, offset := rr.record, rr.prev
	_, err := rr.cr.Read()
	if err == io.EOF {
		return &TruncatedError{Line: line, Offset: offset,
			Err: fmt.Errorf("final record has %d fields, want %s", got, want)}
	}
	return fmt.Errorf("trace: row %d has %d fields, want %s", line, got, want)
}

// referenceWriteCSV is the encoding/csv trace writer that WriteCSV
// replaced, kept verbatim as the byte-level reference: a trace's bytes are
// stored in cache entries and hashed into every trace spec's cache key,
// so the format must not move.
func referenceWriteCSV(t *Trace, w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"rank", "op", "peer", "bytes", "tag", "compute_ns"}); err != nil {
		return err
	}
	for rank, seq := range t.Events {
		for _, e := range seq {
			row := []string{
				strconv.Itoa(rank),
				e.Op.String(),
				strconv.Itoa(e.Peer),
				strconv.Itoa(e.Bytes),
				strconv.Itoa(e.Tag),
				strconv.FormatInt(int64(e.Compute), 10),
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// referenceReadCSV is the encoding/csv trace reader that ReadCSV
// replaced, kept verbatim as the differential oracle: on any input
// without a '"', both must return the same events and the same error
// text.
func referenceReadCSV(r io.Reader, ranks int) (*Trace, error) {
	rr := newRecordReader(r)
	if _, err := rr.next(); err != nil { // header
		if err == io.EOF {
			return nil, fmt.Errorf("trace: empty file")
		}
		return nil, err
	}
	t := New(ranks)
	for {
		row, err := rr.next()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return t, err
		}
		rowNo := rr.record
		if len(row) != 6 {
			return t, rr.truncatedIfLast(len(row), "6")
		}
		rank, err := strconv.Atoi(row[0])
		if err != nil {
			return t, fmt.Errorf("trace: row %d bad rank %q: %w", rowNo, row[0], err)
		}
		if rank < 0 || rank >= ranks {
			return t, fmt.Errorf("trace: row %d rank %d outside %d ranks", rowNo, rank, ranks)
		}
		var op Op
		switch row[1] {
		case "send":
			op = OpSend
		case "recv":
			op = OpRecv
		default:
			return t, fmt.Errorf("trace: row %d bad op %q", rowNo, row[1])
		}
		peer, err := strconv.Atoi(row[2])
		if err != nil {
			return t, fmt.Errorf("trace: row %d bad peer %q: %w", rowNo, row[2], err)
		}
		bytes, err := strconv.Atoi(row[3])
		if err != nil {
			return t, fmt.Errorf("trace: row %d bad bytes %q: %w", rowNo, row[3], err)
		}
		tag, err := strconv.Atoi(row[4])
		if err != nil {
			return t, fmt.Errorf("trace: row %d bad tag %q: %w", rowNo, row[4], err)
		}
		compute, err := strconv.ParseInt(row[5], 10, 64)
		if err != nil {
			return t, fmt.Errorf("trace: row %d bad compute %q: %w", rowNo, row[5], err)
		}
		t.Add(rank, Event{Op: op, Peer: peer, Bytes: bytes, Tag: tag, Compute: sim.Duration(compute)})
	}
}

// referenceWriteDeliveries is the encoding/csv delivery-log writer that
// WriteDeliveries replaced, kept verbatim as the byte-level reference: the
// log's bytes are stored in cache entries, so the format must not move.
func referenceWriteDeliveries(w io.Writer, log []mesh.Delivery) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"id", "src", "dst", "bytes", "inject_ns", "end_ns",
		"latency_ns", "blocked_ns", "hops", "retries", "faults", "status"}); err != nil {
		return err
	}
	for _, d := range log {
		row := []string{
			strconv.FormatInt(d.ID, 10),
			strconv.Itoa(int(d.Src)),
			strconv.Itoa(int(d.Dst)),
			strconv.Itoa(d.Bytes),
			strconv.FormatInt(int64(d.Inject), 10),
			strconv.FormatInt(int64(d.End), 10),
			strconv.FormatInt(int64(d.Latency()), 10),
			strconv.FormatInt(int64(d.Blocked), 10),
			strconv.Itoa(int(d.Hops)),
			strconv.Itoa(int(d.Retries)),
			strconv.Itoa(int(d.Faults)),
			strconv.Itoa(int(d.Status)),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// referenceReadDeliveries is the encoding/csv delivery-log reader that
// ReadDeliveries replaced, kept as the differential oracle with the rules
// ReadDeliveries has gained since (12 columns only, latency_ns equal to
// end_ns - inject_ns, and each narrow field in its Delivery type's range,
// checked here by strconv's sized parsers): on any input without a '"',
// both must return the same deliveries and the same error text.
func referenceReadDeliveries(r io.Reader) ([]mesh.Delivery, error) {
	rr := newRecordReader(r)
	if _, err := rr.next(); err != nil { // header
		if err == io.EOF {
			return nil, fmt.Errorf("trace: empty delivery log")
		}
		return nil, err
	}
	var out []mesh.Delivery
	for {
		row, err := rr.next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		if len(row) != deliveryFields {
			return out, rr.truncatedIfLast(len(row), "12")
		}
		var ints [deliveryFields]int64
		for j, f := range row {
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return out, fmt.Errorf("trace: delivery row %d field %d: %w", rr.record, j, err)
			}
			ints[j] = v
		}
		if lat := ints[5] - ints[4]; ints[6] != lat {
			return out, fmt.Errorf("trace: delivery row %d field 6: latency_ns %d is not end_ns - inject_ns = %d", rr.record, ints[6], lat)
		}
		src, err1 := strconv.ParseInt(row[1], 10, 32)
		dst, err2 := strconv.ParseInt(row[2], 10, 32)
		hops, err8 := strconv.ParseInt(row[8], 10, 32)
		retries, err9 := strconv.ParseUint(row[9], 10, 16)
		for _, c := range []struct {
			col      int
			name     string
			bad      bool
			min, max int64
		}{
			{1, "src", err1 != nil, math.MinInt32, math.MaxInt32},
			{2, "dst", err2 != nil, math.MinInt32, math.MaxInt32},
			{8, "hops", err8 != nil, math.MinInt32, math.MaxInt32},
			{9, "retries", err9 != nil, 0, math.MaxUint16},
			{10, "faults", ints[10]&^int64(1<<6-1) != 0, 0, 1<<6 - 1},
			{11, "status", ints[11] != 0 && ints[11] != 1, 0, 1},
		} {
			if c.bad {
				return out, fmt.Errorf("trace: delivery row %d field %d: %s %d outside [%d, %d]", rr.record, c.col, c.name, ints[c.col], c.min, c.max)
			}
		}
		out = append(out, mesh.Delivery{
			ID: ints[0], Src: int32(src), Dst: int32(dst),
			Bytes: int(ints[3]), Inject: sim.Time(ints[4]),
			End:     sim.Time(ints[5]),
			Blocked: sim.Duration(ints[7]),
			Hops:    int32(hops),
			Retries: uint16(retries),
			Faults:  mesh.FaultFlags(ints[10]),
			Status:  mesh.DeliveryStatus(ints[11]),
		})
	}
}

// randomValue is usually below typical, and one time in twenty an
// extreme int64.
func randomValue(rng *rand.Rand, typical int64) int64 {
	if rng.IntN(20) == 0 {
		return [...]int64{0, -1, math.MaxInt64, math.MinInt64}[rng.IntN(4)]
	}
	return rng.Int64N(typical)
}

// randomLog builds n deliveries with faulted, retried and failed traffic
// mixed in, and extreme values in every column now and then.
func randomLog(rng *rand.Rand, n int) []mesh.Delivery {
	val := func(typical int64) int64 { return randomValue(rng, typical) }
	log := make([]mesh.Delivery, n)
	for i := range log {
		d := &log[i]
		d.ID = int64(i + 1)
		d.Src, d.Dst = int32(val(64)), int32(val(64))
		d.Bytes = int(val(1 << 16))
		d.Inject = sim.Time(val(1 << 40))
		d.End = d.Inject + sim.Time(val(1<<20))
		d.Blocked = sim.Duration(val(1 << 16))
		d.Hops = int32(val(16))
		if rng.IntN(4) == 0 {
			d.Retries = uint16(val(8))
			d.Faults = mesh.FaultFlags(rng.IntN(int(mesh.FaultPartitioned) << 1))
		}
		if rng.IntN(8) == 0 {
			d.Status = mesh.StatusFailed
		}
	}
	return log
}

// TestWriteDeliveriesMatchesCSVReference pins WriteDeliveries' bytes to
// the encoding/csv writer's on random logs, the empty log included.
func TestWriteDeliveriesMatchesCSVReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for _, n := range []int{0, 1, 2, 50, 3000} {
		log := randomLog(rng, n)
		var got, want bytes.Buffer
		if err := WriteDeliveries(&got, log); err != nil {
			t.Fatal(err)
		}
		if err := referenceWriteDeliveries(&want, log); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%d rows: WriteDeliveries differs from the encoding/csv writer", n)
		}
		back, err := ReadDeliveries(&got, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(back) != n {
			t.Fatalf("read %d deliveries, want %d", len(back), n)
		}
		for i := range back {
			if back[i] != log[i] {
				t.Fatalf("row %d: %+v != %+v", i, back[i], log[i])
			}
		}
	}
}

// TestDeliveryCodecAllocations pins the codec's allocation budget: both
// directions allocate a fixed number of times whatever the log's length.
// The writer has its bufio buffer; the reader has its bufio buffer and,
// given the row count as its hint, the result, allocated once.
func TestDeliveryCodecAllocations(t *testing.T) {
	const rows = 2000
	log := randomLog(rand.New(rand.NewPCG(3, 5)), rows)
	if a := testing.AllocsPerRun(5, func() { WriteDeliveries(io.Discard, log) }); a > 3 {
		t.Fatalf("WriteDeliveries allocates %v times for %d rows, want at most 3", a, rows)
	}
	var buf bytes.Buffer
	if err := WriteDeliveries(&buf, log); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	r := bytes.NewReader(data)
	read := func() {
		r.Reset(data)
		if _, err := ReadDeliveries(r, rows); err != nil {
			t.Fatal(err)
		}
	}
	// A collection during a run counts the runtime's own allocations.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if a := testing.AllocsPerRun(5, read); a > 3 {
		t.Fatalf("ReadDeliveries allocates %v times for %d rows, want at most 3", a, rows)
	}
}

// randomTrace builds a ranks-rank trace of n events appended in random
// rank order, with extreme values in every integer column now and then.
func randomTrace(rng *rand.Rand, ranks, n int) *Trace {
	t := New(ranks)
	for range n {
		op := OpSend
		if rng.IntN(2) == 0 {
			op = OpRecv
		}
		t.Add(rng.IntN(ranks), Event{
			Op:      op,
			Peer:    int(randomValue(rng, int64(ranks))),
			Bytes:   int(randomValue(rng, 1<<16)),
			Tag:     int(randomValue(rng, 1<<21) - 1<<20),
			Compute: sim.Duration(randomValue(rng, 1<<30)),
		})
	}
	return t
}

// TestWriteCSVMatchesCSVReference pins WriteCSV's bytes to the
// encoding/csv writer's on random traces, the empty trace included, and
// checks that ReadCSV reads each one back.
func TestWriteCSVMatchesCSVReference(t *testing.T) {
	const ranks = 16
	rng := rand.New(rand.NewPCG(5, 13))
	for _, n := range []int{0, 1, 2, 50, 3000} {
		tr := randomTrace(rng, ranks, n)
		var got, want bytes.Buffer
		if err := tr.WriteCSV(&got); err != nil {
			t.Fatal(err)
		}
		if err := referenceWriteCSV(tr, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%d events: WriteCSV differs from the encoding/csv writer", n)
		}
		back, err := ReadCSV(&got, ranks)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back.Events, tr.Events) {
			t.Fatalf("%d events: read back %v, wrote %v", n, back.Events, tr.Events)
		}
	}
}
