package fft1d

import (
	"math"
	"math/cmplx"
	"testing"

	"commchar/internal/spasm"
)

func TestFFTInPlaceMatchesReference(t *testing.T) {
	x := Input(64)
	got := append([]complex128(nil), x...)
	fftInPlace(got)
	want := Reference(x)
	for i := range want {
		if cmplx.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("fft[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestParallelFFTCorrect(t *testing.T) {
	m := spasm.NewDefault(4)
	cfg := Config{Points: 256}
	res, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := Reference(Input(256))
	for i := range want {
		if cmplx.Abs(res.Output[i]-want[i]) > 1e-6 {
			t.Fatalf("X[%d] = %v, want %v", i, res.Output[i], want[i])
		}
	}
	if res.Makespan <= 0 {
		t.Fatal("no simulated time elapsed")
	}
}

func TestParallelFFTCorrectOn16(t *testing.T) {
	m := spasm.NewDefault(16)
	res, err := Run(m, Config{Points: 1024})
	if err != nil {
		t.Fatal(err)
	}
	want := Reference(Input(1024))
	var maxErr float64
	for i := range want {
		if e := cmplx.Abs(res.Output[i] - want[i]); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 1e-6 {
		t.Fatalf("max error %v", maxErr)
	}
}

func TestGeneratesCommunication(t *testing.T) {
	m := spasm.NewDefault(8)
	_, err := Run(m, Config{Points: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if m.Net.Delivered() == 0 {
		t.Fatal("FFT produced no network traffic")
	}
	if err := m.Mem.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The transpose phase makes every processor read every other
	// processor's columns: all pairs should have communicated via their
	// home nodes. Check traffic is spread over many sources.
	bySource := map[int32]int{}
	for _, d := range m.Net.Log() {
		bySource[d.Src]++
	}
	if len(bySource) < 8 {
		t.Fatalf("traffic from only %d sources", len(bySource))
	}
}

func TestRejectsBadSizes(t *testing.T) {
	m := spasm.NewDefault(4)
	for _, n := range []int{0, 100, 512 /* power of two but not four */} {
		if _, err := Run(m, Config{Points: n}); err == nil {
			t.Fatalf("size %d accepted", n)
		}
	}
}

func TestParsevalProperty(t *testing.T) {
	// Parseval: sum |x|² = (1/N) sum |X|².
	m := spasm.NewDefault(4)
	res, err := Run(m, Config{Points: 256})
	if err != nil {
		t.Fatal(err)
	}
	x := Input(256)
	var ein, eout float64
	for i := range x {
		ein += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		eout += real(res.Output[i])*real(res.Output[i]) + imag(res.Output[i])*imag(res.Output[i])
	}
	if math.Abs(ein-eout/256)/ein > 1e-9 {
		t.Fatalf("Parseval violated: %v vs %v", ein, eout/256)
	}
}
