package backend

import (
	"encoding/json"
	"fmt"
	"io"

	"sheriff/internal/extract"
)

// SaveAnchors writes the learned anchors as JSON, so a crawl can run in a
// later process without redoing the crowd campaign (cmd/crawl pairs the
// dataset with an anchor sidecar).
func (b *Backend) SaveAnchors(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(b.Anchors()); err != nil {
		return fmt.Errorf("backend: save anchors: %w", err)
	}
	return nil
}

// LoadAnchors merges anchors from JSON previously written by SaveAnchors.
// Existing anchors for the same domains are replaced.
func (b *Backend) LoadAnchors(r io.Reader) error {
	var m map[string]extract.Anchor
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return fmt.Errorf("backend: load anchors: %w", err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for d, a := range m {
		b.anchors[d] = a.Parse()
	}
	return nil
}
