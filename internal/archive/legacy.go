package archive

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/lake"
)

// The retired archive format, read-only. Before the lake an archive kept
// one "rel<TAB>size<TAB>crc" line per plain file in MANIFEST.crc, or
// "rel<TAB>size<TAB>crc<TAB>pack<TAB>offset" for a member of a pack
// container (packs/pNNNNNNNN.pack). Nothing writes that format any more;
// this file only reads it, so a pre-lake data directory — a node's disk-0
// or an old StreamCorder cache — upgrades in place on first open.

const (
	manifestName = "MANIFEST.crc"
	// migratedManifestName is where a consumed manifest is parked: its
	// presence marks a completed migration, its absence alongside a
	// MANIFEST.crc marks one to (re)run. Kept rather than deleted so an
	// operator can audit what the journal was seeded from.
	migratedManifestName = manifestName + ".migrated"
)

// legacyMember is one manifest line.
type legacyMember struct {
	size int64
	crc  uint32
	pack string // container file (archive-relative) holding the bytes; "" = own file
	off  int64  // byte offset within pack
}

// parseManifest decodes a manifest image into rel → member (a later line
// for the same rel wins, as it did when the manifest was live). Every
// acknowledged append ended in a newline, so whatever follows the last one
// is the torn tail of an append a crash interrupted — the store it belonged
// to was never acknowledged, and it is dropped. A malformed line anywhere
// before that is real corruption and is refused, never silently skipped.
func parseManifest(data []byte) (map[string]legacyMember, error) {
	members := make(map[string]legacyMember)
	lines := strings.Split(string(data), "\n")
	for _, line := range lines[:len(lines)-1] {
		if line == "" {
			continue
		}
		parts := strings.Split(line, "\t")
		if len(parts) != 3 && len(parts) != 5 {
			return nil, fmt.Errorf("malformed manifest line %q", line)
		}
		size, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("malformed manifest size in line %q", line)
		}
		crc, err := strconv.ParseUint(parts[2], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("malformed manifest crc in line %q", line)
		}
		m := legacyMember{size: size, crc: uint32(crc)}
		if len(parts) == 5 {
			m.pack = parts[3]
			if m.off, err = strconv.ParseInt(parts[4], 10, 64); err != nil {
				return nil, fmt.Errorf("malformed manifest offset in line %q", line)
			}
		}
		members[parts[0]] = m
	}
	return members, nil
}

// readLegacy fetches one member's bytes — its own file for a plain entry,
// the right slice of the container for a pack member — and verifies them
// against the manifest checksum.
func readLegacy(fsys VFS, dir, rel string, m legacyMember) ([]byte, error) {
	var data []byte
	if m.pack == "" {
		var err error
		if data, err = fsys.ReadFile(filepath.Join(dir, rel)); err != nil {
			return nil, err
		}
	} else {
		blob, err := fsys.ReadFile(filepath.Join(dir, m.pack))
		if err != nil {
			return nil, err
		}
		if m.off < 0 || m.size < 0 || m.off+m.size > int64(len(blob)) {
			return nil, fmt.Errorf("%w: %s (container %s truncated)", ErrCorrupt, rel, m.pack)
		}
		data = blob[m.off : m.off+m.size]
	}
	if crc32.ChecksumIEEE(data) != m.crc {
		return nil, fmt.Errorf("%w: %s", ErrCorrupt, rel)
	}
	return data, nil
}

// migrateManifest imports a legacy archive directory into the journal:
// every manifest member is read back (CRC-verified), stored through the
// lake in bounded batches, and only then is the manifest moved aside and
// the legacy bytes dropped. The steps are idempotent — a crash anywhere
// resumes on the next open, skipping members the journal already holds —
// and ordered so the journal owns a member's bytes before the manifest
// copy can disappear. A member that fails its checksum aborts the import
// with the manifest left in place.
func migrateManifest(fsys VFS, dir string, lk *lake.Lake) error {
	manifest := filepath.Join(dir, manifestName)
	image, err := fsys.ReadFile(manifest)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	} else if err != nil {
		return err
	}
	members, err := parseManifest(image)
	if err != nil {
		return err
	}
	rels := make([]string, 0, len(members))
	for rel := range members {
		rels = append(rels, rel)
	}
	sort.Strings(rels)

	var batch []lake.BatchFile
	var batchBytes int64
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		_, err := lk.StoreBatch(batch)
		batch, batchBytes = nil, 0
		return err
	}
	for _, rel := range rels {
		if lk.Exists(rel) {
			continue // an earlier interrupted migration already moved it
		}
		data, err := readLegacy(fsys, dir, rel, members[rel])
		if err != nil {
			return fmt.Errorf("member %s: %w", rel, err)
		}
		batch = append(batch, lake.BatchFile{Rel: rel, Data: data})
		batchBytes += int64(len(data))
		if batchBytes >= 32<<20 {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}

	// Seal: park the manifest, then drop the now-redundant legacy bytes
	// (best-effort: a leftover is unreferenced litter, not an error). A
	// crash between the two leaves unreferenced orphans, never a member
	// whose only copy is gone.
	if err := fsys.Rename(manifest, filepath.Join(dir, migratedManifestName)); err != nil {
		return err
	}
	dropped := make(map[string]bool)
	for _, rel := range rels {
		p := rel
		if m := members[rel]; m.pack != "" {
			p = m.pack
		}
		if !dropped[p] {
			dropped[p] = true
			_ = fsys.Remove(filepath.Join(dir, p))
		}
	}
	return nil
}
