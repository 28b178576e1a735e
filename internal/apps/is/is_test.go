package is

import (
	"sort"
	"testing"

	"commchar/internal/spasm"
)

func verifyRanks(t *testing.T, res *Result) {
	t.Helper()
	n := len(res.Keys)
	// Ranks must be a permutation of 0..n-1.
	seen := make([]bool, n)
	for i, r := range res.Ranks {
		if r < 0 || r >= n || seen[r] {
			t.Fatalf("rank of key %d invalid or duplicated: %d", i, r)
		}
		seen[r] = true
	}
	// Scattering keys by rank must yield the sorted sequence.
	out := make([]int, n)
	for i, r := range res.Ranks {
		out[r] = res.Keys[i]
	}
	if !sort.IntsAreSorted(out) {
		t.Fatal("keys not sorted by computed ranks")
	}
	// And it must be the same multiset.
	a := append([]int(nil), res.Keys...)
	sort.Ints(a)
	for i := range a {
		if a[i] != out[i] {
			t.Fatalf("rank permutation lost keys at %d", i)
		}
	}
}

func TestSortCorrect4Procs(t *testing.T) {
	m := spasm.NewDefault(4)
	res, err := Run(m, Config{Keys: 2048, MaxKey: 128, RngSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	verifyRanks(t, res)
}

func TestSortCorrect16Procs(t *testing.T) {
	m := spasm.NewDefault(16)
	res, err := Run(m, Config{Keys: 4096, MaxKey: 256, RngSeed: 8})
	if err != nil {
		t.Fatal(err)
	}
	verifyRanks(t, res)
	if err := m.Mem.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStableWithinValue(t *testing.T) {
	// Equal keys keep processor-then-position order (counting sort is
	// stable by construction here); just re-verify with heavy duplicates.
	m := spasm.NewDefault(4)
	res, err := Run(m, Config{Keys: 1024, MaxKey: 4, RngSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	verifyRanks(t, res)
}

func TestGeneratesTraffic(t *testing.T) {
	m := spasm.NewDefault(8)
	_, err := Run(m, Config{Keys: 2048, MaxKey: 256, RngSeed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if m.Net.Delivered() == 0 {
		t.Fatal("no communication")
	}
	// Every processor participates, and the barrier protocol must have
	// sent each non-zero processor's arrivals to processor 0.
	toZero := map[int]bool{}
	bySrc := map[int]bool{}
	for _, d := range m.Net.Log() {
		bySrc[int(d.Src)] = true
		if d.Dst == 0 {
			toZero[int(d.Src)] = true
		}
	}
	if len(bySrc) != 8 {
		t.Fatalf("traffic from %d sources, want 8", len(bySrc))
	}
	for s := 1; s < 8; s++ {
		if !toZero[s] {
			t.Fatalf("processor %d never messaged processor 0", s)
		}
	}
	if err := m.Mem.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRejectsBadConfig(t *testing.T) {
	m := spasm.NewDefault(4)
	if _, err := Run(m, Config{Keys: 10, MaxKey: 128}); err == nil {
		t.Fatal("indivisible keys accepted")
	}
	if _, err := Run(m, Config{Keys: 2, MaxKey: 2}); err == nil {
		t.Fatal("tiny problem accepted")
	}
}
