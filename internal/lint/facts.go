package lint

import (
	"encoding/json"
	"fmt"
	"go/token"
	"go/types"
	"reflect"
	"sync"
)

// A Fact is a serializable property an analyzer proves about a
// package-level object (a function, method, or type) and exports for
// downstream packages. Facts are the cross-package half of the suite:
// an intra-package analyzer stops at every import edge, but a fact
// recorded in the unit's vetx file rides the build graph, so "Send
// blocks" proven in one package is visible when another package calls
// it under a lock.
//
// Fact implementations must be JSON-(un)marshalable pointer types.
// AFact is a marker; String renders the fact for humans and for
// `// want fact:"…"` fixture assertions.
type Fact interface {
	AFact()
	String() string
}

// storedFact is the serialized form of one exported fact.
type storedFact struct {
	// Analyzer is the exporting analyzer's rule name.
	Analyzer string `json:"analyzer"`
	// Type is the Go type name of the Fact implementation
	// (e.g. "AcquiresLocks"); it keys decoding.
	Type string `json:"type"`
	// Data is the fact's JSON payload.
	Data json.RawMessage `json:"data"`
	// Render is the human-readable form ("key: String()"), kept in the
	// vetx file so diagnostics can explain imported facts without
	// decoding them.
	Render string `json:"render"`

	// file/line locate the exporting declaration; they are only
	// meaningful for facts exported in the current run (fixture
	// assertions), not for facts decoded from vetx.
	file string
	line int
}

// A FactStore holds facts keyed by package path and object. One store
// spans a whole analysis run: the unitchecker seeds it with the facts
// decoded from every dependency's vetx file, analyzers read through
// Pass.ImportObjectFact and write through Pass.ExportObjectFact, and
// the unit's own slice is re-encoded into its vetx output.
type FactStore struct {
	mu   sync.Mutex
	pkgs map[string]map[string][]*storedFact // pkg path -> object key -> facts
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{pkgs: make(map[string]map[string][]*storedFact)}
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

// factTypeName returns the unqualified type name of a Fact
// implementation ("*lint.AcquiresLocks" -> "AcquiresLocks").
func factTypeName(f Fact) string {
	t := reflect.TypeOf(f)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t.Name()
}

// export records fact for pkg/key. posn locates the exporting
// declaration for fixture assertions.
func (s *FactStore) export(analyzer, pkg, key string, fact Fact, posn token.Position) error {
	data, err := json.Marshal(fact)
	if err != nil {
		return fmt.Errorf("marshaling %s fact for %s.%s: %w", factTypeName(fact), pkg, key, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pkgs[pkg] == nil {
		s.pkgs[pkg] = make(map[string][]*storedFact)
	}
	s.pkgs[pkg][key] = append(s.pkgs[pkg][key], &storedFact{
		Analyzer: analyzer,
		Type:     factTypeName(fact),
		Data:     data,
		Render:   key + ": " + fact.String(),
		file:     posn.Filename,
		line:     posn.Line,
	})
	return nil
}

// lookup decodes the fact of factPtr's type recorded for pkg/key into
// factPtr, reporting whether one was found.
func (s *FactStore) lookup(pkg, key string, factPtr Fact) bool {
	want := factTypeName(factPtr)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sf := range s.pkgs[pkg][key] {
		if sf.Type == want && json.Unmarshal(sf.Data, factPtr) == nil {
			return true
		}
	}
	return false
}

// vetxSchema versions the vetx payload; a mismatch means a stale cache
// entry from an older tool build, which go vet already prevents via the
// -V=full fingerprint, so decoding treats it as empty rather than
// failing.
const vetxSchema = 1

// vetxFile is the JSON layout of one package's facts in its vetx file.
type vetxFile struct {
	Schema int                      `json:"schema"`
	Facts  map[string][]*storedFact `json:"facts,omitempty"`
}

// EncodePackage serializes pkg's facts for its vetx file. The encoding
// is deterministic: object keys sort via encoding/json's map ordering
// and fact order within a key follows export order, which is fixed by
// the analyzer sequence and source order.
func (s *FactStore) EncodePackage(pkg string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return json.Marshal(vetxFile{Schema: vetxSchema, Facts: s.pkgs[pkg]})
}

// DecodePackage merges the facts serialized in data (a dependency's
// vetx file) into the store under pkg. Empty data — the vetx of a
// factless or out-of-module package — decodes to nothing.
func (s *FactStore) DecodePackage(pkg string, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	var vf vetxFile
	if err := json.Unmarshal(data, &vf); err != nil {
		return fmt.Errorf("decoding facts for %s: %w", pkg, err)
	}
	if vf.Schema != vetxSchema {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pkgs[pkg] == nil {
		s.pkgs[pkg] = make(map[string][]*storedFact)
	}
	for key, facts := range vf.Facts {
		s.pkgs[pkg][key] = append(s.pkgs[pkg][key], facts...)
	}
	return nil
}

// ExportObjectFact records fact about obj, which must belong to the
// package under analysis. The fact becomes visible to
// ImportObjectFact in this run and is serialized into the unit's vetx
// file for downstream packages.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if p.facts == nil || obj == nil || obj.Pkg() == nil {
		return
	}
	if obj.Pkg() != p.Pkg {
		//lint:allow exitcode analyzer-API misuse is a bug in the lint suite itself; it must fail loudly in the suite's own tests, not flow into run results
		panic(fmt.Sprintf("lint: %s exported a fact for %s, which is outside the package under analysis",
			p.Analyzer.Name, obj.Name()))
	}
	if !p.declaresFactType(fact) {
		//lint:allow exitcode an undeclared FactType is a bug in the analyzer's registration, caught by the suite's own tests
		panic(fmt.Sprintf("lint: %s exported undeclared fact type %s (add it to FactTypes)",
			p.Analyzer.Name, factTypeName(fact)))
	}
	if err := p.facts.export(p.Analyzer.Name, obj.Pkg().Path(), objectKey(obj), fact, p.Fset.Position(obj.Pos())); err != nil {
		//lint:allow exitcode a fact type that fails json.Marshal is a bug in its declaration, caught by the suite's own tests
		panic("lint: " + err.Error())
	}
}

// ImportObjectFact copies the fact of factPtr's type recorded about obj
// — by this unit or by the dependency that declared obj — into factPtr,
// reporting whether one exists.
func (p *Pass) ImportObjectFact(obj types.Object, factPtr Fact) bool {
	if p.facts == nil || obj == nil || obj.Pkg() == nil {
		return false
	}
	return p.facts.lookup(obj.Pkg().Path(), objectKey(obj), factPtr)
}

// declaresFactType reports whether the pass's analyzer declared fact's
// type in FactTypes, catching exports of the wrong analyzer's facts.
func (p *Pass) declaresFactType(fact Fact) bool {
	want := factTypeName(fact)
	for _, ft := range p.Analyzer.FactTypes {
		if factTypeName(ft) == want {
			return true
		}
	}
	return false
}
