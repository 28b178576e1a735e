package lint

import (
	"encoding/json"
	"fmt"
	"go/types"
)

// funcFacts is what one package's analysis proves about one of its
// functions from the function's body. An importing package cannot see
// that body: export data gives it the callee's signature and the
// methods of its types, not what the callee does. So the record rides
// the build graph instead, in the unit's vetx file, and a property
// proven in one package is visible when another package calls it.
// Everything the analyzers need beyond these two properties they work
// out from export data at the call site.
type funcFacts struct {
	// Loops reports that the function loops forever with no
	// cancellation path (leakcheck): starting it with `go` in any
	// package creates a goroutine that shutdown cannot reach.
	Loops bool `json:"loops,omitempty"`
	// Blocks says how the function can block indefinitely on external
	// progress, a channel send or an HTTP round-trip, directly or
	// transitively (lockorder); "" when it cannot. Calling it while
	// holding a lock serializes every other user of that lock on the
	// slow operation.
	Blocks string `json:"blocks,omitempty"`
}

// A FactStore holds funcFacts keyed by package path and objectKey. One
// store spans a whole analysis run: the unitchecker seeds it with the
// records decoded from every dependency's vetx file, the analyzers read
// and add through Pass.facts, and the unit's own records are re-encoded
// into its vetx output.
type FactStore struct {
	pkgs map[string]map[string]funcFacts // pkg path -> object key -> record
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{pkgs: make(map[string]map[string]funcFacts)}
}

// objectKey names obj within its package: "F" for a package-level
// function, "T.M" for a method (pointer receivers are not
// distinguished), "T" for a type.
func objectKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			t := sig.Recv().Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return named.Obj().Name() + "." + fn.Name()
			}
		}
	}
	return obj.Name()
}

// of returns what is recorded about fn, by this unit or by the
// dependency that declared it; the zero record when nothing is.
func (s *FactStore) of(fn *types.Func) funcFacts {
	if fn.Pkg() == nil {
		return funcFacts{}
	}
	return s.pkgs[fn.Pkg().Path()][objectKey(fn)]
}

// add merges f into fn's record: each analyzer sets its own field.
func (s *FactStore) add(fn *types.Func, f funcFacts) {
	pkg := fn.Pkg().Path()
	if s.pkgs[pkg] == nil {
		s.pkgs[pkg] = make(map[string]funcFacts)
	}
	key := objectKey(fn)
	rec := s.pkgs[pkg][key]
	rec.Loops = rec.Loops || f.Loops
	if f.Blocks != "" {
		rec.Blocks = f.Blocks
	}
	s.pkgs[pkg][key] = rec
}

// encode serializes pkg's records for its vetx file. encoding/json
// sorts map keys, so the bytes are deterministic.
func (s *FactStore) encode(pkg string) ([]byte, error) {
	return json.Marshal(s.pkgs[pkg])
}

// decode loads the records serialized in data (a dependency's vetx
// file) under pkg. Empty data, the vetx of an out-of-module package,
// decodes to nothing.
func (s *FactStore) decode(pkg string, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	var recs map[string]funcFacts
	if err := json.Unmarshal(data, &recs); err != nil {
		return fmt.Errorf("decoding facts for %s: %w", pkg, err)
	}
	s.pkgs[pkg] = recs
	return nil
}
