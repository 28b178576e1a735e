package trace

import (
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"

	"commchar/internal/mesh"
)

func TestReadCSVErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		csv  string
	}{
		{"empty", ""},
		{"short row", "rank,op,peer,bytes,tag,compute_ns\n0,send\n"},
		{"bad rank", "rank,op,peer,bytes,tag,compute_ns\nx,send,1,8,0,0\n"},
		{"rank out of range", "rank,op,peer,bytes,tag,compute_ns\n9,send,1,8,0,0\n"},
		{"bad op", "rank,op,peer,bytes,tag,compute_ns\n0,sendd,1,8,0,0\n"},
		{"bad peer", "rank,op,peer,bytes,tag,compute_ns\n0,send,x,8,0,0\n"},
		{"bad bytes", "rank,op,peer,bytes,tag,compute_ns\n0,send,1,x,0,0\n"},
		{"bad tag", "rank,op,peer,bytes,tag,compute_ns\n0,send,1,8,x,0\n"},
		{"bad compute", "rank,op,peer,bytes,tag,compute_ns\n0,send,1,8,0,x\n"},
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c.csv), 2); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestReadCSVParseErrorsKeepCause pins the errtaxonomy contract on the
// reader's field errors: the underlying *strconv.NumError must stay
// reachable through errors.As, so callers above the pipeline boundary
// can distinguish a malformed field from a structural trace problem.
// (The repolint errtaxonomy audit found these wraps dropping the cause.)
func TestReadCSVParseErrorsKeepCause(t *testing.T) {
	header := "rank,op,peer,bytes,tag,compute_ns\n"
	cases := []struct {
		name string
		row  string
	}{
		{"bad rank", "x,send,1,8,0,0"},
		{"bad peer", "0,send,x,8,0,0"},
		{"bad bytes", "0,send,1,x,0,0"},
		{"bad tag", "0,send,1,8,x,0"},
		{"bad compute", "0,send,1,8,0,x"},
	}
	for _, c := range cases {
		_, err := ReadCSV(strings.NewReader(header+c.row+"\n"), 2)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		var ne *strconv.NumError
		if !errors.As(err, &ne) {
			t.Errorf("%s: cause not wrapped, errors.As found no *strconv.NumError in %v", c.name, err)
		}
	}
	// An in-range parse failure must not be confused with the
	// out-of-range case, which has no underlying parse error.
	_, err := ReadCSV(strings.NewReader(header+"9,send,1,8,0,0\n"), 2)
	var ne *strconv.NumError
	if err == nil || errors.As(err, &ne) {
		t.Errorf("rank out of range: got %v, want a plain range error", err)
	}
}

func TestReadDeliveriesErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		csv  string
	}{
		{"empty", ""},
		{"short row", deliveryHeader + "1,2\n"},
		{"bad field", deliveryHeader + "1,2,3,4,5,6,1,8,x,0,0,0\n"},
	}
	for _, c := range cases {
		if _, err := ReadDeliveries(strings.NewReader(c.csv), 0); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestReadCSVTruncatedFinalRecord(t *testing.T) {
	header := "rank,op,peer,bytes,tag,compute_ns\n"
	good := "0,send,1,8,0,100\n1,recv,0,8,0,50\n"
	in := header + good + "0,send,1" // write cut off mid-record

	tr, err := ReadCSV(strings.NewReader(in), 2)
	var te *TruncatedError
	if !errors.As(err, &te) {
		t.Fatalf("expected TruncatedError, got %v", err)
	}
	if te.Line != 4 {
		t.Errorf("line = %d, want 4", te.Line)
	}
	if want := int64(len(header) + len(good)); te.Offset != want {
		t.Errorf("offset = %d, want %d (bytes before the broken record)", te.Offset, want)
	}
	// The clean prefix is salvaged.
	if len(tr.Events[0]) != 1 || len(tr.Events[1]) != 1 {
		t.Errorf("prefix not salvaged: %v", tr.Events)
	}
}

func TestReadCSVUnterminatedQuoteIsTruncation(t *testing.T) {
	in := "rank,op,peer,bytes,tag,compute_ns\n0,send,1,8,0,100\n\"0,send"
	tr, err := ReadCSV(strings.NewReader(in), 2)
	var te *TruncatedError
	if !errors.As(err, &te) {
		t.Fatalf("expected TruncatedError, got %v", err)
	}
	if len(tr.Events[0]) != 1 {
		t.Errorf("prefix not salvaged: %v", tr.Events)
	}
}

// TestReadCSVQuoteIsAnError pins the quote rule: no writer ever quotes
// a trace field, so a '"' anywhere, header included, is a hard error
// mid-file and a truncation in the final record.
func TestReadCSVQuoteIsAnError(t *testing.T) {
	const header, row = "rank,op,peer,bytes,tag,compute_ns\n", "0,send,1,8,0,100\n"
	cases := []struct {
		name, in  string
		truncated bool
		events    int // salvaged on truncation
		want      string
	}{
		{"quoted header", `"rank",op,peer,bytes,tag,compute_ns` + "\n" + row, false, 0, "trace: row 1 has a quote"},
		{"quoted header only", `"rank",op,peer,bytes,tag,compute_ns` + "\n", true, 0, "final record has a quote"},
		{"quoted field mid-file", header + row + `0,"send",1,8,0,100` + "\n" + row, false, 0, "trace: row 3 has a quote"},
		{"quoted field last", header + row + `0,"send",1,8,0,100` + "\n", true, 1, "final record has a quote"},
	}
	for _, c := range cases {
		tr, err := ReadCSV(strings.NewReader(c.in), 2)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
			continue
		}
		var te *TruncatedError
		if errors.As(err, &te) != c.truncated {
			t.Errorf("%s: truncation %v, want %v: %v", c.name, !c.truncated, c.truncated, err)
		}
		if c.truncated && c.events > 0 && tr.TotalEvents() != c.events {
			t.Errorf("%s: salvaged %d events, want %d", c.name, tr.TotalEvents(), c.events)
		}
	}
}

func TestReadCSVMidFileBadRowsAreHardErrors(t *testing.T) {
	cases := []struct {
		name string
		row  string
	}{
		{"short", "0,send,1"},
		{"over-long", "0,send,1,8,0,100,junk,junk"},
		{"garbage", "\x00\xff{]garbage"},
	}
	for _, c := range cases {
		// A good row follows the bad one, so this is not a truncated tail.
		in := "rank,op,peer,bytes,tag,compute_ns\n" + c.row + "\n0,send,1,8,0,100\n"
		_, err := ReadCSV(strings.NewReader(in), 2)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		var te *TruncatedError
		if errors.As(err, &te) && c.name != "garbage" {
			// Field-count errors mid-file must not claim truncation.
			// (Garbage may break the csv layer itself, which is reported
			// as a truncation at that record; that is acceptable.)
			t.Errorf("%s: mid-file error misreported as truncation: %v", c.name, err)
		}
	}
}

func TestReadDeliveriesTruncatedFinalRecord(t *testing.T) {
	header := "id,src,dst,bytes,inject_ns,end_ns,latency_ns,blocked_ns,hops,retries,faults,status\n"
	good := "1,0,3,64,0,900,900,0,3,0,0,0\n2,1,2,32,10,800,790,0,2,1,1,0\n"
	in := header + good + "3,2,1,16"

	log, err := ReadDeliveries(strings.NewReader(in), 0)
	var te *TruncatedError
	if !errors.As(err, &te) {
		t.Fatalf("expected TruncatedError, got %v", err)
	}
	if te.Line != 4 {
		t.Errorf("line = %d, want 4", te.Line)
	}
	if want := int64(len(header) + len(good)); te.Offset != want {
		t.Errorf("offset = %d, want %d", te.Offset, want)
	}
	if len(log) != 2 {
		t.Fatalf("salvaged %d deliveries, want 2", len(log))
	}
	if log[1].Retries != 1 || log[1].Faults == 0 {
		t.Errorf("fault columns lost in salvage: %+v", log[1])
	}
}

// TestReadDeliveriesRejectsNineColumns pins that a 9-column row (a log
// without the fault columns) is malformed: mid-file it is a hard error,
// and as the last record it is a truncation.
func TestReadDeliveriesRejectsNineColumns(t *testing.T) {
	const row, nine = "1,0,3,64,0,900,900,0,3,0,0,0\n", "7,0,3,64,0,900,900,40,3\n"
	_, err := ReadDeliveries(strings.NewReader(deliveryHeader+nine+row), 0)
	var te *TruncatedError
	if err == nil || errors.As(err, &te) || err.Error() != "trace: row 2 has 9 fields, want 12" {
		t.Errorf("9-column row mid-file: %v, want a hard field-count error", err)
	}
	log, err := ReadDeliveries(strings.NewReader(deliveryHeader+row+nine), 0)
	if !errors.As(err, &te) || te.Line != 3 || len(log) != 1 {
		t.Errorf("9-column last row: %d deliveries, %v; want 1 and a truncation at line 3", len(log), err)
	}
}

// TestReadDeliveriesLatencyRule pins the latency column: it must equal
// end_ns - inject_ns as int64 arithmetic gives it, wraparound included,
// and a row where it does not is a hard error naming the row and field 6,
// even as the last record.
func TestReadDeliveriesLatencyRule(t *testing.T) {
	wrapped := "1,0,3,64,9223372036854775807,-9223372036854775808,1,0,3,0,0,0\n"
	log, err := ReadDeliveries(strings.NewReader(deliveryHeader+wrapped), 0)
	if err != nil || len(log) != 1 || log[0].Latency() != 1 {
		t.Fatalf("wrapped latency: %v, %v", log, err)
	}
	for _, bad := range []string{"1,0,3,64,0,900,899,0,3,0,0,0\n", "1,0,3,64,9223372036854775807,-9223372036854775808,0,0,3,0,0,0\n"} {
		log, err := ReadDeliveries(strings.NewReader(deliveryHeader+"2,0,3,64,0,900,900,0,3,0,0,0\n"+bad), 0)
		var te *TruncatedError
		if err == nil || errors.As(err, &te) || !strings.HasPrefix(err.Error(), "trace: delivery row 3 field 6: ") {
			t.Errorf("%q: %v, want a hard error at row 3 field 6", bad, err)
		}
		if len(log) != 1 {
			t.Errorf("%q: %d deliveries before the bad row, want 1", bad, len(log))
		}
	}
}

// TestReadDeliveriesRangeRule pins the ranges of the fields a Delivery
// holds narrower than int64: src, dst and hops must fit an int32, retries
// a uint16, faults no bit beyond FaultPartitioned, and status must be
// delivered or failed. Each bound is accepted, and one past it is a hard
// error naming the row and field, even as the last record, rather than a
// silent truncation.
func TestReadDeliveriesRangeRule(t *testing.T) {
	const first = "2,0,3,64,0,900,900,0,3,0,0,0\n"
	edge := "1,-2147483648,2147483647,64,0,900,900,0,-2147483648,65535,63,1\n"
	log, err := ReadDeliveries(strings.NewReader(deliveryHeader+edge), 0)
	if err != nil || len(log) != 1 || log[0].Src != math.MinInt32 || log[0].Dst != math.MaxInt32 ||
		log[0].Hops != math.MinInt32 || log[0].Retries != math.MaxUint16 || log[0].Faults != 63 || log[0].Status != mesh.StatusFailed {
		t.Fatalf("fields at their bounds: %+v, %v", log, err)
	}
	for _, c := range []struct {
		row   string
		field string
	}{
		{"1,2147483648,3,64,0,900,900,0,3,0,0,0\n", "field 1: src 2147483648 outside"},
		{"1,0,-2147483649,64,0,900,900,0,3,0,0,0\n", "field 2: dst -2147483649 outside"},
		{"1,0,3,64,0,900,900,0,4294967296,0,0,0\n", "field 8: hops 4294967296 outside"},
		{"1,0,3,64,0,900,900,0,3,65536,0,0\n", "field 9: retries 65536 outside"},
		{"1,0,3,64,0,900,900,0,3,-1,0,0\n", "field 9: retries -1 outside"},
		{"1,0,3,64,0,900,900,0,3,0,64,0\n", "field 10: faults 64 outside"},
		{"1,0,3,64,0,900,900,0,3,0,0,2\n", "field 11: status 2 outside"},
	} {
		for _, last := range []bool{true, false} {
			in := deliveryHeader + first + c.row
			if !last {
				in += first
			}
			log, err := ReadDeliveries(strings.NewReader(in), 0)
			var te *TruncatedError
			if err == nil || errors.As(err, &te) || !strings.HasPrefix(err.Error(), "trace: delivery row 3 "+c.field) {
				t.Errorf("%q (last %v): %v, want a hard error at row 3 %s", c.row, last, err, c.field)
			}
			if len(log) != 1 {
				t.Errorf("%q (last %v): %d deliveries before the bad row, want 1", c.row, last, len(log))
			}
		}
	}
}

func TestOpString(t *testing.T) {
	if OpSend.String() != "send" || OpRecv.String() != "recv" {
		t.Fatal("op strings wrong")
	}
	if !strings.Contains(Op(9).String(), "9") {
		t.Fatal("unknown op string")
	}
}
