package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"commchar/internal/ccnuma"
	"commchar/internal/core"
	"commchar/internal/trace"
	"commchar/internal/workload"
)

// oracle.json pins the outputs of the code the benchmark was defined on:
// per cold spec its cache key, report digest and exact counters; per
// synthetic-regeneration op at the default seed its Validation digest.
//
//go:embed oracle.json
var oracleJSON []byte

type oracle struct {
	// Specs is keyed by the spec's canonical string (RunSpec.String).
	Specs map[string]specRef `json:"specs"`
	// Synth is keyed by synthKey: the primed spec and the op's seed.
	Synth map[string]synthRef `json:"synth"`
}

type specRef struct {
	Label    string   `json:"label"`
	Key      string   `json:"key"`
	Report   string   `json:"report_sha256"`
	Counters counters `json:"counters"`
	// Original digests workload.Validation.Original, which depends on
	// the characterization alone, not on the generator seed.
	Original string `json:"original_sha256"`
}

type synthRef struct {
	Validation string   `json:"validation_sha256"`
	Counters   counters `json:"counters"`
}

// counters are the exact, simulated-side counts of one op. Every one of
// them must repeat bit for bit between runs of the same code.
type counters struct {
	SimEvents           int64 `json:"sim.events"`
	MeshMsgs            int64 `json:"mesh.msgs"`
	CCNUMAMisses        int64 `json:"ccnuma.misses"`
	CCNUMAInvalidations int64 `json:"ccnuma.invalidations"`
	MPTraceEvents       int64 `json:"mp.trace_events"`
	CollInstances       int64 `json:"coll.instances"`
	DUDIters            int64 `json:"stats.dud_iters"`
	SynthMsgs           int64 `json:"workload.synth_msgs"`
}

func (k *counters) add(o counters) {
	k.SimEvents += o.SimEvents
	k.MeshMsgs += o.MeshMsgs
	k.CCNUMAMisses += o.CCNUMAMisses
	k.CCNUMAInvalidations += o.CCNUMAInvalidations
	k.MPTraceEvents += o.MPTraceEvents
	k.CollInstances += o.CollInstances
	k.DUDIters += o.DUDIters
	k.SynthMsgs += o.SynthMsgs
}

// charCounters counts a cold characterization: events is what the
// simulator fired, mem the coherence counters of a dynamic run (nil for a
// static one).
func charCounters(c *core.Characterization, events int64, mem *ccnuma.Stats) counters {
	k := counters{SimEvents: events, MeshMsgs: int64(len(c.Log)), DUDIters: dudIters(c)}
	if mem != nil {
		k.CCNUMAMisses = mem.ReadMisses + mem.WriteMisses
		k.CCNUMAInvalidations = mem.Invalidations
	}
	k.MPTraceEvents = traceEvents(c.Trace)
	if c.Coll != nil {
		k.CollInstances = int64(len(c.Coll.Instances))
	}
	return k
}

// dudIters sums the DUD iterations of every stored fit.
func dudIters(c *core.Characterization) int64 {
	var n int64
	for _, f := range c.Aggregate.Fits {
		n += int64(f.Iters)
	}
	for _, s := range c.PerSource {
		for _, f := range s.Fits {
			n += int64(f.Iters)
		}
	}
	return n
}

// traceEvents counts an application trace's events; nil counts 0.
func traceEvents(tr *trace.Trace) int64 {
	var n int64
	if tr != nil {
		for _, evs := range tr.Events {
			n += int64(len(evs))
		}
	}
	return n
}

func synthCounters(v *workload.Validation) counters {
	return counters{
		MeshMsgs:  int64(v.Synthetic.Messages + v.Synthetic.Failed),
		SynthMsgs: int64(v.Synthetic.Messages),
	}
}

func synthKey(spec string, seed uint64) string { return fmt.Sprintf("%s|seed=%d", spec, seed) }

// digest hashes a value's %+v rendering. Floats print in their shortest
// round-trip form, so equal digests mean bit-identical fields.
func digest(v any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", v)))
	return hex.EncodeToString(sum[:])
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func loadOracle() (*oracle, error) {
	o := &oracle{}
	if err := json.Unmarshal(oracleJSON, o); err != nil {
		return nil, fmt.Errorf("oracle.json: %w", err)
	}
	if o.Specs == nil {
		o.Specs = map[string]specRef{}
	}
	if o.Synth == nil {
		o.Synth = map[string]synthRef{}
	}
	return o, nil
}

func (o *oracle) write(path string) error {
	b, err := json.MarshalIndent(o, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// checkSpec compares one cold op's outputs with the reference. While the
// oracle is being written, the first op of a spec records the reference.
func (b *bench) checkSpec(spec string, got specRef) error {
	want, ok := b.oracle.Specs[spec]
	if b.recording && !ok {
		b.oracle.Specs[spec] = got
		return nil
	}
	switch {
	case !ok:
		return fmt.Errorf("no reference output for spec %s", spec)
	case got.Key != want.Key:
		return fmt.Errorf("%s: cache key %s, want %s", got.Label, got.Key, want.Key)
	case got.Report != want.Report:
		return fmt.Errorf("%s: report digest %s, want %s", got.Label, got.Report, want.Report)
	case got.Counters != want.Counters:
		return fmt.Errorf("%s: counters %+v, want %+v", got.Label, got.Counters, want.Counters)
	case got.Original != want.Original:
		return fmt.Errorf("%s: original metrics digest %s, want %s", got.Label, got.Original, want.Original)
	}
	return nil
}

// checkSynth checks one synthetic-regeneration op. At any seed the
// regenerated traffic must be non-empty, fault-free and finite, the
// original-side metrics must match the reference, and an op repeated with
// the same seed must repeat bit for bit; at the default seed the whole
// Validation must match the reference.
func (b *bench) checkSynth(spec string, seed uint64, v *workload.Validation) error {
	s := v.Synthetic
	for _, x := range []float64{s.MeanLatencyNS, s.MeanBlockedNS, s.MeanHops, s.MeanUtilization, s.MessageRate, v.LatencyErr, v.RateErr, v.UtilErr} {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("seed %d: non-finite validation metric in %+v", seed, *v)
		}
	}
	if s.Messages == 0 || s.Failed != 0 {
		return fmt.Errorf("seed %d: %d synthetic messages delivered, %d failed", seed, s.Messages, s.Failed)
	}
	got := synthRef{Validation: digest(*v), Counters: synthCounters(v)}
	if prev, ok := b.seen[seed]; ok && prev != got {
		return fmt.Errorf("seed %d: validation %s %+v differs from an earlier op's %s %+v", seed, got.Validation, got.Counters, prev.Validation, prev.Counters)
	}
	b.seen[seed] = got
	key := synthKey(spec, seed)
	if _, ok := b.oracle.Synth[key]; b.recording && !ok {
		b.oracle.Synth[key] = got
		return nil
	}
	if orig := digest(v.Original); orig != b.oracle.Specs[spec].Original {
		return fmt.Errorf("seed %d: original metrics digest %s, want %s", seed, orig, b.oracle.Specs[spec].Original)
	}
	if b.seed != defaultSeed {
		return nil
	}
	want, ok := b.oracle.Synth[key]
	switch {
	case !ok:
		return fmt.Errorf("no reference validation for %s", key)
	case got != want:
		return fmt.Errorf("seed %d: validation %s %+v, want %s %+v", seed, got.Validation, got.Counters, want.Validation, want.Counters)
	}
	return nil
}
