package pipeline

import (
	"errors"
	"strings"
	"testing"

	"commchar/internal/apps"
	"commchar/internal/cli"
)

// TestSpecStringCollectives: the Collectives knob follows the same
// compatibility contract as Topology — the zero value renders nothing
// (pre-collectives specs keep their canonical bytes), every non-zero
// value is part of the string and the cache key.
func TestSpecStringCollectives(t *testing.T) {
	base := RunSpec{App: "MG", Procs: 8, Scale: apps.ScaleSmall}
	if s := base.String(); strings.Contains(s, "coll=") {
		t.Fatalf("zero-valued Collectives leaked into the spec string: %q", s)
	}
	baseKey, err := base.Key("")
	if err != nil {
		t.Fatal(err)
	}

	bin := base
	bin.Collectives = "binomial"
	if s := bin.String(); !strings.Contains(s, "coll=binomial|") {
		t.Fatalf("Collectives rendering drifted: %q", s)
	}
	binKey, err := bin.Key("")
	if err != nil {
		t.Fatal(err)
	}
	if binKey == baseKey {
		t.Fatal("Collectives not part of the cache key")
	}

	// "linear" is the explicit spelling of the default family: it is a
	// distinct spec string (and key) because the trace it produces tags
	// the same algorithm, but callers wanting the default should leave
	// the field empty.
	lin := base
	lin.Collectives = "linear"
	if s := lin.String(); !strings.Contains(s, "coll=linear|") {
		t.Fatalf("explicit linear rendering drifted: %q", s)
	}
}

func TestValidateRejectsUnknownCollectives(t *testing.T) {
	spec := RunSpec{App: "MG", Procs: 8, Collectives: "hypercubic"}
	err := spec.Validate()
	if err == nil {
		t.Fatal("unknown collective family accepted")
	}
	var ue *cli.UsageError
	if !errors.As(err, &ue) {
		t.Fatalf("%v is not a usage error", err)
	}
	for _, ok := range []string{"", "linear", "binomial"} {
		spec.Collectives = ok
		if err := spec.Validate(); err != nil {
			t.Fatalf("%q rejected: %v", ok, err)
		}
	}
}
