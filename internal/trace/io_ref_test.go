package trace

import (
	"bytes"
	"encoding/csv"
	"io"
	"math"
	"math/rand/v2"
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
		back, err := ReadDeliveries(&got)
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

// TestDeliveryCodecAllocations pins the codec's allocation budget: the
// writer's is fixed whatever the log's length, and the reader's is one
// per row (the csv record's backing string) plus the growing result.
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
	a := testing.AllocsPerRun(5, func() { ReadDeliveries(bytes.NewReader(data)) })
	if perRow := a / rows; perRow > 1.05 {
		t.Fatalf("ReadDeliveries allocates %.3f times per row, want at most 1.05", perRow)
	}
}
