package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
)

// A Registry is the unified metrics surface: counters, gauges, and
// histograms registered by name, exportable as Prometheus text format
// (WritePrometheus, the /metrics endpoint) and expvar-style JSON
// (WriteExpvar, the /varz endpoint). Registration is last-writer-wins:
// re-registering a name replaces the previous source, so several
// engines can share one registry without ceremony. All methods are safe
// for concurrent use and safe on a nil *Registry.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// entry is one registered metric family.
type entry struct {
	name, help string
	col        collector
}

// collector is the value side of a registered metric.
type collector interface {
	// kind is the Prometheus TYPE keyword: counter, gauge, histogram.
	kind() string
	// writeProm writes the sample lines (no HELP/TYPE header).
	writeProm(w io.Writer, name string) error
	// exportVar returns the expvar JSON value.
	exportVar() any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{entries: map[string]*entry{}} }

// register installs (or replaces) a named metric.
func (r *Registry) register(name, help string, col collector) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries[name] = &entry{name: name, help: help, col: col}
}

// counterFunc is a counter whose value is read from a callback at
// export time.
type counterFunc func() int64

func (f counterFunc) kind() string { return "counter" }
func (f counterFunc) writeProm(w io.Writer, name string) error {
	_, err := fmt.Fprintf(w, "%s %d\n", name, f())
	return err
}
func (f counterFunc) exportVar() any { return f() }

// CounterFunc registers a counter whose value is read from fn at export
// time — the bridge for atomic counters owned by their subsystem
// (pipeline.Metrics, dist.Metrics).
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.register(name, help, counterFunc(fn))
}

// A Gauge is a settable instantaneous value.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Value returns the gauge's current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

func (g *Gauge) kind() string { return "gauge" }
func (g *Gauge) writeProm(w io.Writer, name string) error {
	_, err := fmt.Fprintf(w, "%s %s\n", name, formatFloat(g.Value()))
	return err
}
func (g *Gauge) exportVar() any { return g.Value() }

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(name, help, g)
	return g
}

// constGauge is a fixed-value gauge with a label set — build_info.
type constGauge struct {
	labels string // pre-rendered {k="v",...}, keys sorted
	value  float64
	vars   map[string]string
}

func (c *constGauge) kind() string { return "gauge" }
func (c *constGauge) writeProm(w io.Writer, name string) error {
	_, err := fmt.Fprintf(w, "%s%s %s\n", name, c.labels, formatFloat(c.value))
	return err
}
func (c *constGauge) exportVar() any {
	out := map[string]any{"value": c.value}
	for k, v := range c.vars {
		out[k] = v
	}
	return out
}

// ConstGauge registers a fixed gauge with a label set (labels rendered
// in sorted key order) — the shape of the build_info metric.
func (r *Registry) ConstGauge(name, help string, labels map[string]string, value float64) {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rendered := ""
	if len(keys) > 0 {
		rendered = "{"
		for i, k := range keys {
			if i > 0 {
				rendered += ","
			}
			rendered += k + "=" + strconv.Quote(labels[k])
		}
		rendered += "}"
	}
	vars := make(map[string]string, len(labels))
	for k, v := range labels {
		vars[k] = v
	}
	r.register(name, help, &constGauge{labels: rendered, value: value, vars: vars})
}

// A CounterVec is a family of counters split by the value of one label.
// The zero value is an empty family ready to count: label values appear
// as they are first added, so the family suits labels (topology, op)
// whose values are not known up front.
type CounterVec struct {
	mu sync.Mutex
	m  map[string]int64
}

// Add increments the series labelled value by n.
func (v *CounterVec) Add(value string, n int64) {
	if v == nil {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.m == nil {
		v.m = map[string]int64{}
	}
	v.m[value] += n
}

// Snapshot returns a copy of every series, keyed by label value.
func (v *CounterVec) Snapshot() map[string]int64 {
	out := map[string]int64{}
	if v == nil {
		return out
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	for k, n := range v.m {
		out[k] = n
	}
	return out
}

// vecCollector exports a CounterVec under its label name, one series per
// label value in sorted order (scrapes are deterministic).
type vecCollector struct {
	label string
	v     *CounterVec
}

func (c vecCollector) kind() string { return "counter" }
func (c vecCollector) writeProm(w io.Writer, name string) error {
	m := c.v.Snapshot()
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "%s{%s=%s} %d\n", name, c.label, strconv.Quote(k), m[k]); err != nil {
			return err
		}
	}
	return nil
}
func (c vecCollector) exportVar() any { return c.v.Snapshot() }

// CounterVec registers v as a labelled counter family whose series are
// read at scrape time, each label value exported under the label name.
func (r *Registry) CounterVec(name, help, label string, v *CounterVec) {
	r.register(name, help, vecCollector{label: label, v: v})
}

// DefBuckets are the default histogram bucket upper bounds, in seconds,
// spanning sub-millisecond cache hits to minute-long cold sweeps.
var DefBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60}

// A Histogram counts observations into fixed cumulative buckets.
type Histogram struct {
	mu      sync.Mutex
	bounds  []float64
	counts  []int64 // per-bucket (non-cumulative); rendered cumulatively
	sum     float64
	samples int64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	if i < len(h.counts) {
		h.counts[i]++
	} else {
		h.counts[len(h.counts)-1]++ // +Inf bucket
	}
	h.sum += v
	h.samples++
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.samples
}

func (h *Histogram) kind() string { return "histogram" }
func (h *Histogram) writeProm(w io.Writer, name string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum := int64(0)
	for i, b := range h.bounds {
		if b == inf {
			break
		}
		cum += h.counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatFloat(b), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.samples); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(h.sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", name, h.samples)
	return err
}
func (h *Histogram) exportVar() any {
	h.mu.Lock()
	defer h.mu.Unlock()
	buckets := map[string]int64{}
	cum := int64(0)
	for i, b := range h.bounds {
		if b == inf {
			break
		}
		cum += h.counts[i]
		buckets[formatFloat(b)] = cum
	}
	buckets["+Inf"] = h.samples
	return map[string]any{"count": h.samples, "sum": h.sum, "buckets": buckets}
}

var inf = math.Inf(1)

// Histogram registers and returns a histogram with the given ascending
// bucket upper bounds (nil means DefBuckets); a +Inf bucket is implied.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	bounds := append(append([]float64{}, buckets...), inf)
	h := &Histogram{bounds: bounds, counts: make([]int64, len(bounds))}
	r.register(name, help, h)
	return h
}

// formatFloat renders a float the way Prometheus clients do: shortest
// representation that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// snapshot returns the entries sorted by name (names are unique — they
// are the registration keys — so the order is total).
func (r *Registry) snapshot() []*entry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.entries))
	for name := range r.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*entry, 0, len(names))
	for _, name := range names {
		out = append(out, r.entries[name])
	}
	r.mu.Unlock()
	return out
}

// WritePrometheus writes every registered metric in Prometheus text
// exposition format, families sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, e := range r.snapshot() {
		if e.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", e.name, e.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", e.name, e.col.kind()); err != nil {
			return err
		}
		if err := e.col.writeProm(w, e.name); err != nil {
			return err
		}
	}
	return nil
}

// WriteExpvar writes every registered metric as one JSON object keyed
// by metric name (expvar-style), keys sorted.
func (r *Registry) WriteExpvar(w io.Writer) error {
	vars := map[string]any{}
	for _, e := range r.snapshot() {
		vars[e.name] = e.col.exportVar()
	}
	b, err := json.MarshalIndent(vars, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: encoding expvar export: %w", err)
	}
	if _, err := w.Write(b); err != nil {
		return err
	}
	_, err = io.WriteString(w, "\n")
	return err
}
