// Package obs is the obsconv declaring-side fixture: nil-receiver
// safety of exported pointer-receiver methods, which makes its exported
// types nil-safe in every importing package.
package obs

// Observer fans events out to sinks; nil observers are no-ops.
type Observer struct{ events int }

// Emit counts one event.
func (o *Observer) Emit() {
	if o == nil {
		return
	}
	o.events++
}

// Registry registers metrics.
type Registry struct{ names []string }

// register funnels every exported registration through one guard.
func (r *Registry) register(name string) {
	if r == nil {
		return
	}
	r.names = append(r.names, name)
}

// CounterFunc registers a monotonically increasing metric read from fn.
func (r *Registry) CounterFunc(name, help string, fn func() int64) { r.register(name) }

// Gauge registers an instantaneous metric.
func (r *Registry) Gauge(name, help string) { r.register(name) }

// Histogram registers a distribution metric.
func (r *Registry) Histogram(name, help string) { r.register(name) }

// CounterVec is a counter family split by one label.
type CounterVec struct{ series map[string]int64 }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help, label string, v *CounterVec) { r.register(name) }

// Tracer opens spans; it predates the nil-safety rule.
type Tracer struct{ spans int }

// Begin opens a span.
func (t *Tracer) Begin() { // want "obsconv: exported method \\(\\*Tracer\\).Begin dereferences its receiver without a nil guard"
	t.spans++
}

// Flusher drains buffers.
type Flusher struct{ pending int }

// Flush drains the buffer.
//
//lint:allow obsconv the flusher is constructed unconditionally in main and is never nil
func (f *Flusher) Flush() {
	f.pending = 0
}
