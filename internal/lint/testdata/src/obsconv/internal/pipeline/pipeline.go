// Package pipeline pins that nil-safety keys on the declaring package,
// not the type's name: a guard around trace.Observer stands, while the
// same guard around obs.Observer is redundant.
package pipeline

import (
	"obsconv/internal/obs"
	"obsconv/internal/trace"
)

// Span guards a trace observer, which may be nil-unsafe.
func Span(o *trace.Observer) {
	if o != nil {
		o.Emit()
	}
}

// Event guards an obs observer, which is nil-safe.
func Event(o *obs.Observer) {
	if o != nil { // want "obsconv: redundant nil guard: \\*Observer is nil-safe \\(obsconv holds every exported type of obsconv/internal/obs to it\\)"
		o.Emit()
	}
}
