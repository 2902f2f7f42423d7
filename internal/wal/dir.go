package wal

import (
	"os"
	"path/filepath"
)

// Dir is the optional backing store a Log mirrors segment bytes to on every
// sync. The in-memory segment image stays authoritative — the mirror is
// never read back on the hot path — so a Dir implementation only needs
// write/remove.
type Dir interface {
	// WriteSegment persists one segment's current bytes under name. data
	// is the log's own segment buffer, which it reuses: it is valid only
	// during the call, and an implementation that keeps it must copy it.
	WriteSegment(name string, data []byte) error
	// RemoveSegment deletes a compacted segment.
	RemoveSegment(name string) error
}

// OSDir mirrors segments into a real directory. This is the one sanctioned
// filesystem writer outside test code (see scripts/lint-directio.sh): all
// other packages must stay free of direct I/O so virtual-time runs remain
// deterministic and CPU-bound.
type OSDir struct {
	Path string
}

// WriteSegment writes the segment file, creating the directory on first
// use.
func (d OSDir) WriteSegment(name string, data []byte) error {
	if err := os.MkdirAll(d.Path, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(d.Path, name), data, 0o644)
}

// RemoveSegment deletes the segment file; a missing file is not an error.
func (d OSDir) RemoveSegment(name string) error {
	err := os.Remove(filepath.Join(d.Path, name))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}
