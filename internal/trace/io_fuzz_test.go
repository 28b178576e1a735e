package trace

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// FuzzReadCSV checks the trace reader against referenceReadCSV, the
// encoding/csv reader it replaced: on any input without a '"' both
// return the same events, the same error text and the same error types;
// any input with a '"' is an error. Accepted traces round-trip: write
// the parsed trace back out and re-reading must reproduce it exactly.
func FuzzReadCSV(f *testing.F) {
	const header = "rank,op,peer,bytes,tag,compute_ns\n"
	const row = "0,send,1,8,0,100\n"
	f.Add(header + row + "1,recv,0,8,0,50\n")
	f.Add(header)
	f.Add(header + "0,send,1,8")
	f.Add(header + "0,send,1,8,0,100,extra,extra\n")
	f.Add("\"unterminated")
	f.Add("")
	f.Add("rank,op\r\n0,send,1,8,0,100\r\n1,recv,0,8,0,50\r\n")
	f.Add(header + "\n" + row + "\n\r\n" + row + "\n")
	f.Add(header + row + "\r")
	f.Add(header + "+5,send,1,8,0,100\n")
	f.Add(header + "0,send,1,8,0,9223372036854775808\n")
	f.Add(header + "0,send,1,8,9223372036854775807,-9223372036854775808\n")
	f.Add(header + "0,send,,8,0,100\n")
	f.Add(header + row + "0,\"send\",1,8,0,100\n" + row)
	f.Add(header + "0,send,1\n" + row)
	f.Add(header + "0,send,1,8,0,100,7\n" + row)
	f.Add(header + row + "0,send,1,8,0,100,7")
	f.Fuzz(func(t *testing.T, data string) {
		const ranks = 4
		tr, err := ReadCSV(strings.NewReader(data), ranks)
		if strings.Contains(data, `"`) {
			if err == nil {
				t.Fatal("accepted a trace with a quote")
			}
			return
		}
		want, wantErr := referenceReadCSV(strings.NewReader(data), ranks)
		if errText(err) != errText(wantErr) {
			t.Fatalf("error %q, reference %q", errText(err), errText(wantErr))
		}
		var te, wantTE *TruncatedError
		var ne, wantNE *strconv.NumError
		if errors.As(err, &te) != errors.As(wantErr, &wantTE) || errors.As(err, &ne) != errors.As(wantErr, &wantNE) {
			t.Fatalf("error types differ: %T, reference %T", err, wantErr)
		}
		if !reflect.DeepEqual(tr, want) {
			t.Fatalf("trace differs from the reference:\n%v\nvs\n%v", tr, want)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			t.Fatalf("write-back of accepted trace failed: %v", err)
		}
		again, err := ReadCSV(&buf, ranks)
		if err != nil {
			t.Fatalf("re-read of written trace failed: %v", err)
		}
		if !reflect.DeepEqual(tr.Events, again.Events) {
			t.Fatalf("round trip diverged:\n%v\nvs\n%v", tr.Events, again.Events)
		}
	})
}

// FuzzReadDeliveries checks the delivery-log reader against
// referenceReadDeliveries, the encoding/csv reader it replaced: on any
// input without a '"' both return the same deliveries, the same error
// text and the same error types, with or without a capacity hint; any
// input with a '"' is an error. Accepted logs round-trip through
// WriteDeliveries unchanged.
func FuzzReadDeliveries(f *testing.F) {
	const header = "id,src,dst,bytes,inject_ns,end_ns,latency_ns,blocked_ns,hops,retries,faults,status\n"
	const row = "1,0,3,64,0,900,900,0,3,0,0,0\n"
	f.Add(header + row)
	f.Add("id,src,dst,bytes,inject_ns,end_ns,latency_ns,blocked_ns,hops\n1,0,3,64,0,900,900,0,3\n")
	f.Add(header + "1,0,3\n")
	f.Add("\"broken")
	f.Add("")
	f.Add("\r")
	f.Add(header + row + "\r")
	f.Add("id,src\r\n1,0,3,64,0,900,900,0,3,0,0,0\r\n2,0,3,64,0,900,900,0,3,0,0,0\r\n")
	f.Add(header + "\n" + row + "\n\r\n" + row + "\n")
	f.Add(header + "+5,0,3,64,0,900,900,0,3,0,0,0\n")
	f.Add(header + "9223372036854775808,0,3,64,0,900,900,0,3,0,0,0\n")
	f.Add(header + "-9223372036854775808,9223372036854775807,3,64,0,900,900,0,3,0,0,0\n")
	f.Add(header + "1,0,,64,0,900,900,0,3,0,0,0\n")
	f.Add(header + row + "7,0,3,64,0,900,900,40,3\n" + row)
	f.Add(header + "1,0,3,64\n" + row)
	f.Add(header + row + "1,0,3,64")
	f.Add(header + row + "1,0,\"3\",64,0,900,900,0,3,0,0,0\n")
	f.Add(header + "1,0,3,64,0,900,899,0,3,0,0,0\n" + row)
	f.Add(header + "1,0,3,64,9223372036854775807,-9223372036854775808,1,0,3,0,0,0\n")
	// One seed per narrow field, past its range; the last at every bound.
	f.Add(header + row + "2,2147483648,3,64,0,900,900,0,3,0,0,0\n")
	f.Add(header + "1,0,-2147483649,64,0,900,900,0,3,0,0,0\n" + row)
	f.Add(header + "1,0,3,64,0,900,900,0,9223372036854775807,0,0,0\n")
	f.Add(header + "1,0,3,64,0,900,900,0,3,65536,0,0\n")
	f.Add(header + "1,0,3,64,0,900,900,0,3,0,-64,0\n")
	f.Add(header + "1,0,3,64,0,900,900,0,3,0,0,2\n")
	f.Add(header + "1,-2147483648,2147483647,64,0,900,900,0,-2147483648,65535,63,1\n")
	f.Fuzz(func(t *testing.T, data string) {
		log, err := ReadDeliveries(strings.NewReader(data), 0)
		if strings.Contains(data, `"`) {
			if err == nil {
				t.Fatal("accepted a log with a quote")
			}
			return
		}
		want, wantErr := referenceReadDeliveries(strings.NewReader(data))
		if errText(err) != errText(wantErr) {
			t.Fatalf("error %q, reference %q", errText(err), errText(wantErr))
		}
		var te, wantTE *TruncatedError
		var ne, wantNE *strconv.NumError
		if errors.As(err, &te) != errors.As(wantErr, &wantTE) || errors.As(err, &ne) != errors.As(wantErr, &wantNE) {
			t.Fatalf("error types differ: %T, reference %T", err, wantErr)
		}
		if !slices.Equal(log, want) {
			t.Fatalf("deliveries differ from the reference:\n%v\nvs\n%v", log, want)
		}
		hinted, hintErr := ReadDeliveries(strings.NewReader(data), len(data)/MinDeliveryRow)
		if errText(hintErr) != errText(err) || !slices.Equal(hinted, log) {
			t.Fatalf("a capacity hint changed the result: %v, %v", hintErr, err)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteDeliveries(&buf, log); err != nil {
			t.Fatalf("write-back of accepted log failed: %v", err)
		}
		again, err := ReadDeliveries(&buf, len(log))
		if err != nil {
			t.Fatalf("re-read of written log failed: %v", err)
		}
		if !slices.Equal(log, again) {
			t.Fatalf("round trip diverged:\n%v\nvs\n%v", log, again)
		}
	})
}

// errText is err's message, or "" for no error.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
