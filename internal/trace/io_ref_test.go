package trace

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"runtime/debug"
	"strconv"
	"testing"

	"commchar/internal/mesh"
	"commchar/internal/sim"
)

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
			strconv.FormatInt(d.Message.ID, 10),
			strconv.Itoa(d.Src),
			strconv.Itoa(d.Dst),
			strconv.Itoa(d.Bytes),
			strconv.FormatInt(int64(d.Inject), 10),
			strconv.FormatInt(int64(d.End), 10),
			strconv.FormatInt(int64(d.Latency), 10),
			strconv.FormatInt(int64(d.Blocked), 10),
			strconv.Itoa(d.Hops),
			strconv.Itoa(d.Retries),
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
// ReadDeliveries replaced, kept verbatim as the differential oracle: on
// any input without a '"', both must return the same deliveries and the
// same error text.
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
		if len(row) != deliveryFields && len(row) != legacyFields {
			return out, rr.truncatedIfLast(len(row), "9 or 12")
		}
		var ints [deliveryFields]int64
		for j, f := range row {
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return out, fmt.Errorf("trace: delivery row %d field %d: %w", rr.record, j, err)
			}
			ints[j] = v
		}
		out = append(out, mesh.Delivery{
			Message: mesh.Message{
				ID: ints[0], Src: int(ints[1]), Dst: int(ints[2]),
				Bytes: int(ints[3]), Inject: sim.Time(ints[4]),
			},
			End:     sim.Time(ints[5]),
			Latency: sim.Duration(ints[6]),
			Blocked: sim.Duration(ints[7]),
			Hops:    int(ints[8]),
			Retries: int(ints[9]),
			Faults:  mesh.FaultFlags(ints[10]),
			Status:  mesh.DeliveryStatus(ints[11]),
		})
	}
}

// randomLog builds n deliveries with faulted, retried and failed traffic
// mixed in, and extreme values in every column now and then.
func randomLog(rng *rand.Rand, n int) []mesh.Delivery {
	extreme := []int64{0, -1, math.MaxInt64, math.MinInt64}
	val := func(typical int64) int64 {
		if rng.IntN(20) == 0 {
			return extreme[rng.IntN(len(extreme))]
		}
		return rng.Int64N(typical)
	}
	log := make([]mesh.Delivery, n)
	for i := range log {
		d := &log[i]
		d.ID = int64(i + 1)
		d.Src, d.Dst = int(val(64)), int(val(64))
		d.Bytes = int(val(1 << 16))
		d.Inject = sim.Time(val(1 << 40))
		d.End = d.Inject + sim.Time(val(1<<20))
		d.Latency = sim.Duration(val(1 << 20))
		d.Blocked = sim.Duration(val(1 << 16))
		d.Hops = int(val(16))
		if rng.IntN(4) == 0 {
			d.Retries = int(val(8))
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
