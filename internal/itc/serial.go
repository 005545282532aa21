package itc

import (
	"fmt"
	"io"
)

// Serialization of the trained graph: the offline phase's distributable
// artifact (the paper conducts CFG generation and training "before the
// distribution of the protected software", §3.3, so the labeled ITC-CFG
// ships alongside the binary and loads at protection time).
//
// The wire format IS the flat in-memory form (flat.go): Encode writes
// the published artifact's arena verbatim, and Decode validates the
// bytes in one pass — the artifact is mapped, not unmarshaled.

// Encode writes the published labeled graph (including path training)
// to w: the labels as of the last RebuildCache, like every lookup.
func (g *Graph) Encode(w io.Writer) error {
	_, err := w.Write(g.art.Load().Bytes())
	return err
}

// Decode reads a labeled graph written by Encode and publishes its
// labels. The input must be a complete, valid artifact;
// LoadFlat's strict validation makes accepted bytes canonical, so
// re-encoding the result reproduces them exactly.
func Decode(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("itc: decode: %w", err)
	}
	f, err := LoadFlat(data)
	if err != nil {
		return nil, fmt.Errorf("itc: decode: %w", err)
	}
	return graphFromFlat(f), nil
}
