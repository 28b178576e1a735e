package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

	"commchar/internal/mesh"
	"commchar/internal/sim"
)

// TruncatedError reports a structurally broken record — typically the
// final record of a partially written log. It carries the record's line
// number and the bytes consumed up to the last good record, so callers can
// salvage the prefix: the reader returns everything parsed before the
// break alongside this error.
type TruncatedError struct {
	Line   int   // 1-based line of the offending record
	Offset int64 // bytes cleanly consumed before it
	Err    error
}

func (e *TruncatedError) Error() string {
	return fmt.Sprintf("trace: truncated record at line %d (%d bytes consumed): %v", e.Line, e.Offset, e.Err)
}

func (e *TruncatedError) Unwrap() error { return e.Err }

// traceFields is the trace CSV's column count, and traceHeader its first
// line.
const (
	traceFields = 6
	traceHeader = "rank,op,peer,bytes,tag,compute_ns\n"
)

// WriteCSV serializes the trace as CSV with header
// rank,op,peer,bytes,tag,compute_ns — one row per event, in program order.
// No field ever needs CSV quoting (integers and an op name), so each row
// is formatted into one reused buffer, as WriteDeliveries does.
func (t *Trace) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceHeader); err != nil {
		return err
	}
	row := make([]byte, 0, 128)
	for rank, seq := range t.Events {
		for _, e := range seq {
			row = strconv.AppendInt(row[:0], int64(rank), 10)
			row = append(row, ',')
			row = append(row, e.Op.String()...)
			for _, v := range [...]int64{int64(e.Peer), int64(e.Bytes), int64(e.Tag), int64(e.Compute)} {
				row = append(row, ',')
				row = strconv.AppendInt(row, v, 10)
			}
			row = append(row, '\n')
			if _, err := bw.Write(row); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadCSV parses a trace written by WriteCSV, streaming record by record;
// it never buffers the whole file. ranks is the machine size; rows may
// appear in any rank order but must be in program order per rank.
//
// The records are split as ReadDeliveries splits them: the first
// non-blank line is the header, blank lines are skipped, and a trace is
// never quoted, so a '"' anywhere, header included, makes its record
// malformed. A malformed final record (a quote, or a field count other
// than 6) is a truncation: ReadCSV returns the cleanly parsed prefix
// together with a *TruncatedError carrying the line number and bytes
// consumed. The same fault mid-file, or a field that does not parse, is
// a hard error naming the row.
func ReadCSV(r io.Reader, ranks int) (*Trace, error) {
	lr := lineReader{br: bufio.NewReader(r)}
	if err := lr.header(); err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("trace: empty file")
		}
		return nil, err
	}
	t := New(ranks)
	for {
		row, err := lr.row(traceFields)
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return t, err
		}
		rowNo := lr.record
		rank, err := atoi(row[0])
		if err != nil {
			return t, fmt.Errorf("trace: row %d bad rank %q: %w", rowNo, row[0], err)
		}
		if rank < 0 || rank >= ranks {
			return t, fmt.Errorf("trace: row %d rank %d outside %d ranks", rowNo, rank, ranks)
		}
		var op Op
		switch string(row[1]) {
		case "send":
			op = OpSend
		case "recv":
			op = OpRecv
		default:
			return t, fmt.Errorf("trace: row %d bad op %q", rowNo, row[1])
		}
		peer, err := atoi(row[2])
		if err != nil {
			return t, fmt.Errorf("trace: row %d bad peer %q: %w", rowNo, row[2], err)
		}
		bytes, err := atoi(row[3])
		if err != nil {
			return t, fmt.Errorf("trace: row %d bad bytes %q: %w", rowNo, row[3], err)
		}
		tag, err := atoi(row[4])
		if err != nil {
			return t, fmt.Errorf("trace: row %d bad tag %q: %w", rowNo, row[4], err)
		}
		compute, err := parseInt64(row[5])
		if err != nil {
			return t, fmt.Errorf("trace: row %d bad compute %q: %w", rowNo, row[5], err)
		}
		t.Add(rank, Event{Op: op, Peer: peer, Bytes: bytes, Tag: tag, Compute: sim.Duration(compute)})
	}
}

// deliveryFields is the delivery log's column count.
const deliveryFields = 12

// deliveryHeader is the delivery log's first line.
const deliveryHeader = "id,src,dst,bytes,inject_ns,end_ns,latency_ns,blocked_ns,hops,retries,faults,status\n"

// WriteDeliveries serializes a network log as CSV with header
// id,src,dst,bytes,inject_ns,end_ns,latency_ns,blocked_ns,hops,retries,faults,status.
// latency_ns is Delivery.Latency, end_ns - inject_ns. The last three
// columns flag faulted traffic: retransmission count, the
// mesh.FaultFlags bitmask, and 0 (delivered) or 1 (failed). Every field
// is an integer, which CSV never quotes, so each row is formatted into
// one reused buffer.
func WriteDeliveries(w io.Writer, log []mesh.Delivery) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(deliveryHeader); err != nil {
		return err
	}
	row := make([]byte, 0, 256)
	for i := range log {
		d := &log[i]
		fields := [deliveryFields]int64{
			d.ID, int64(d.Src), int64(d.Dst), int64(d.Bytes),
			int64(d.Inject), int64(d.End), int64(d.Latency()), int64(d.Blocked),
			int64(d.Hops), int64(d.Retries), int64(d.Faults), int64(d.Status),
		}
		row = row[:0]
		for _, v := range fields {
			row = strconv.AppendInt(row, v, 10)
			row = append(row, ',')
		}
		row[len(row)-1] = '\n'
		if _, err := bw.Write(row); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// MinDeliveryRow is the length in bytes of the shortest row that
// ReadDeliveries accepts: 12 one-digit fields with no line end. A log of
// n bytes therefore holds at most n/MinDeliveryRow rows, which bounds any
// capacity hint taken from untrusted metadata.
const MinDeliveryRow = 2*deliveryFields - 1

// ReadDeliveries parses a network log written by WriteDeliveries in one
// streaming pass. hint is the expected row count: the result is allocated
// once at that capacity, and grows by append only past it (hint <= 0
// means unknown). Every field must be a base-10 int64, and latency_ns
// must equal end_ns - inject_ns as int64 arithmetic gives it, since a
// Delivery derives its latency and cannot hold another. The fields a
// Delivery holds narrower must fit: src, dst and hops an int32, retries a
// uint16, faults no bit beyond FaultPartitioned, and status
// StatusDelivered or StatusFailed.
//
// The first non-blank line is the header and is skipped whatever it
// holds; an input without one is an error. Blank lines are skipped, and
// a "\r\n" line end, or a lone "\r" at the end of the input, reads as a
// plain line end. A log is never quoted: a '"' anywhere, header
// included, makes its record malformed.
//
// A malformed record (a quote, or a field count other than 12) that is
// the last record of the input is a truncation: the reader returns the
// cleanly parsed prefix together with a *TruncatedError carrying the
// record's number and the bytes consumed before it. The same fault
// followed by another record, a field that does not parse or does not
// fit, or a latency_ns that disagrees with end_ns - inject_ns is a hard
// error, even in the last record, naming the row (records are counted
// from 1, header included) and the field's 0-based column.
func ReadDeliveries(r io.Reader, hint int) ([]mesh.Delivery, error) {
	lr := lineReader{br: bufio.NewReader(r)}
	if err := lr.header(); err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("trace: empty delivery log")
		}
		return nil, err
	}
	var out []mesh.Delivery
	if hint > 0 {
		out = make([]mesh.Delivery, 0, hint)
	}
	for {
		row, err := lr.row(deliveryFields)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		var ints [deliveryFields]int64
		for j, f := range row {
			if ints[j], err = parseInt64(f); err != nil {
				return out, fmt.Errorf("trace: delivery row %d field %d: %w", lr.record, j, err)
			}
		}
		if lat := ints[5] - ints[4]; ints[6] != lat {
			return out, fmt.Errorf("trace: delivery row %d field 6: latency_ns %d is not end_ns - inject_ns = %d", lr.record, ints[6], lat)
		}
		for _, nf := range narrowFields {
			if v := ints[nf.col]; v < nf.min || v > nf.max {
				return out, fmt.Errorf("trace: delivery row %d field %d: %s %d outside [%d, %d]", lr.record, nf.col, nf.name, v, nf.min, nf.max)
			}
		}
		out = append(out, mesh.Delivery{
			ID: ints[0], Src: int32(ints[1]), Dst: int32(ints[2]),
			Bytes: int(ints[3]), Inject: sim.Time(ints[4]),
			End:     sim.Time(ints[5]),
			Blocked: sim.Duration(ints[7]),
			Hops:    int32(ints[8]),
			Retries: uint16(ints[9]),
			Faults:  mesh.FaultFlags(ints[10]),
			Status:  mesh.DeliveryStatus(ints[11]),
		})
	}
}

// narrowFields are the delivery-log columns a Delivery holds in fewer
// than 64 bits, with the range each must lie in: src, dst and hops are
// int32, retries a uint16, faults the FaultFlags bits, and status
// delivered or failed.
var narrowFields = [...]struct {
	col      int
	name     string
	min, max int64
}{
	{1, "src", math.MinInt32, math.MaxInt32},
	{2, "dst", math.MinInt32, math.MaxInt32},
	{8, "hops", math.MinInt32, math.MaxInt32},
	{9, "retries", 0, math.MaxUint16},
	{10, "faults", 0, int64(mesh.FaultPartitioned)<<1 - 1},
	{11, "status", int64(mesh.StatusDelivered), int64(mesh.StatusFailed)},
}

// parseInt64 parses a base-10 int64 field. parseInt takes the common
// form; strconv gives the verdict on everything else, so a bad field's
// error and its wrapped *strconv.NumError stay those of strconv.ParseInt.
func parseInt64(f []byte) (int64, error) {
	if v, ok := parseInt(f); ok {
		return v, nil
	}
	return strconv.ParseInt(string(f), 10, 64)
}

// atoi is parseInt64 for an int field, with strconv.Atoi's verdict.
func atoi(f []byte) (int, error) {
	if v, ok := parseInt(f); ok && int64(int(v)) == v {
		return int(v), nil
	}
	return strconv.Atoi(string(f))
}

// parseInt parses the common form of a base-10 int64: an optional '-'
// and 1 to 19 digits, in range. ok is false for anything else (a '+',
// an empty field, more digits, any other byte, overflow), which the
// caller hands to strconv.
func parseInt(b []byte) (v int64, ok bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	if len(b) == 0 || len(b) > 19 { // 19 digits cannot overflow a uint64
		return 0, false
	}
	var u uint64
	for _, c := range b {
		c -= '0'
		if c > 9 {
			return 0, false
		}
		u = u*10 + uint64(c)
	}
	if neg {
		if u > 1<<63 {
			return 0, false
		}
		return -int64(u), true // u == 1<<63 wraps to math.MinInt64
	}
	if u > math.MaxInt64 {
		return 0, false
	}
	return int64(u), true
}

// lineReader splits a trace or a delivery log into records the way
// encoding/csv does for unquoted input: one record per line, blank lines
// skipped. It numbers the records and tracks the input offsets around
// the last one.
type lineReader struct {
	br       *bufio.Reader
	long     []byte                 // a line longer than br's buffer, reassembled
	fields   [deliveryFields][]byte // the last record's fields, as row cut them
	record   int                    // records read so far (including the header)
	consumed int64                  // input bytes read, blank lines included
	offset   int64                  // input offset after the last record
	prev     int64                  // input offset after the record before it
}

// next returns the following record without its line end; it stays
// valid until the next call. A read error other than io.EOF is returned
// as a *TruncatedError at the record it interrupted.
func (lr *lineReader) next() ([]byte, error) {
	for {
		line, err := lr.br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			lr.long = append(lr.long[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = lr.br.ReadSlice('\n')
				lr.long = append(lr.long, line...)
			}
			line = lr.long
		}
		lr.consumed += int64(len(line))
		if len(line) > 0 && err == io.EOF {
			err = nil // an unterminated last line
		}
		if err != nil {
			if err == io.EOF {
				return nil, io.EOF
			}
			return nil, &TruncatedError{Line: lr.record + 1, Offset: lr.offset, Err: err}
		}
		// Only the last line can lack its '\n', so stripping an optional
		// '\n' and then one optional '\r' handles "\r\n" and a final
		// "\r" alike.
		line = bytes.TrimSuffix(line, []byte{'\n'})
		line = bytes.TrimSuffix(line, []byte{'\r'})
		if len(line) == 0 {
			continue
		}
		lr.record++
		lr.prev, lr.offset = lr.offset, lr.consumed
		return line, nil
	}
}

// truncatedIfLast classifies the malformed record just read: if it is
// the last record of the input it is a truncation (salvageable),
// otherwise a hard format error. defect completes "record ...".
func (lr *lineReader) truncatedIfLast(defect string) error {
	line, offset := lr.record, lr.prev
	if _, err := lr.next(); err == io.EOF {
		return &TruncatedError{Line: line, Offset: offset, Err: errors.New("final record " + defect)}
	}
	return fmt.Errorf("trace: row %d %s", line, defect)
}

// header reads the first record, which is skipped whatever it holds
// unless it has a quote. It returns io.EOF for an input with no record.
func (lr *lineReader) header() error {
	line, err := lr.next()
	if err == nil && bytes.IndexByte(line, '"') >= 0 {
		err = lr.truncatedIfLast("has a quote")
	}
	return err
}

// row returns the next record cut at its commas; the fields stay valid
// until the next call. A record with a quote, or whose field count is
// not n (at most deliveryFields), is malformed and classified by
// truncatedIfLast.
func (lr *lineReader) row(n int) ([][]byte, error) {
	line, err := lr.next()
	if err != nil {
		return nil, err
	}
	if bytes.IndexByte(line, '"') >= 0 {
		return nil, lr.truncatedIfLast("has a quote")
	}
	if got := bytes.Count(line, []byte{','}) + 1; got != n {
		return nil, lr.truncatedIfLast(fmt.Sprintf("has %d fields, want %d", got, n))
	}
	row := lr.fields[:n]
	for j := range n - 1 {
		i := bytes.IndexByte(line, ',')
		row[j], line = line[:i], line[i+1:]
	}
	row[n-1] = line
	return row, nil
}
