package analysis

import (
	"encoding/json"
	"fmt"
	"sort"
)

// FactStore holds the per-(analyzer, package) facts accumulated over a
// dependency-ordered run. Facts are stored JSON-serialized — the same
// modularity boundary go/analysis enforces with gob: a fact that does
// not survive serialization cannot leak unserializable state between
// packages.
type FactStore struct {
	// facts maps analyzer name -> package path -> encoded fact.
	facts map[string]map[string]json.RawMessage
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{facts: make(map[string]map[string]json.RawMessage)}
}

// set serializes fact as (analyzer, pkgPath)'s entry.
func (s *FactStore) set(analyzer, pkgPath string, fact any) error {
	raw, err := json.Marshal(fact)
	if err != nil {
		return fmt.Errorf("fact for %s/%s does not serialize: %v", analyzer, pkgPath, err)
	}
	m := s.facts[analyzer]
	if m == nil {
		m = make(map[string]json.RawMessage)
		s.facts[analyzer] = m
	}
	m[pkgPath] = raw
	return nil
}

// each decodes every fact stored for analyzer into fresh prototypes
// (in sorted package order, for determinism) and calls fn with each.
func (s *FactStore) each(analyzer string, proto func() any, fn func(pkgPath string, fact any)) error {
	m := s.facts[analyzer]
	paths := make([]string, 0, len(m))
	for p := range m {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		fact := proto()
		if err := json.Unmarshal(m[p], fact); err != nil {
			return fmt.Errorf("decoding fact %s/%s: %v", analyzer, p, err)
		}
		fn(p, fact)
	}
	return nil
}
