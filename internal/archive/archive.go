// Package archive implements HEDC's file store: the actual data (raw units
// and derived products, mostly images) lives in file archives while only
// meta data lives in the DBMS (§4.1). "All file data is read only" — an
// archive enforces write-once semantics. Every node mounts one disk
// archive; the paper's NFS and tape tiers (§2.3) are not modelled.
//
// An Archive is policy only — identity, kind, the online flag, a byte
// capacity — over one internal/lake store. How the bytes are laid out, checksummed and made durable (the
// commit journal, immutable containers, compaction, GC, time travel) is
// known by internal/lake alone.
package archive

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/lake"
	"repro/internal/minidb"
)

// VFS is the filesystem seam under an archive — the same interface the
// database engine defines (minidb.VFS), so one fault-injecting
// implementation (internal/fault) can torture both tiers in a single
// scripted workload. Production archives use minidb.OSFS.
type VFS = minidb.VFS

// Kind classifies the storage tier backing an archive. The location
// tables record it; Disk is the only kind.
type Kind int

// Disk is a local disk archive.
const Disk Kind = 0

// String names the kind.
func (k Kind) String() string {
	if k == Disk {
		return "disk"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Errors reported by archives.
var (
	ErrOffline  = errors.New("archive: archive is offline")
	ErrExists   = errors.New("archive: file already exists (file data is read only)")
	ErrNotFound = errors.New("archive: file not found")
	ErrFull     = errors.New("archive: capacity exhausted")
	ErrCorrupt  = errors.New("archive: checksum mismatch")
)

// Archive is one storage unit rooted at a directory.
type Archive struct {
	id       string
	kind     Kind
	capacity int64 // bytes; 0 = unlimited
	lk       *lake.Lake

	mu       sync.RWMutex
	online   bool
	reserved int64 // bytes of in-flight StoreBatch calls, held against capacity
}

// NewLake opens (or creates) an archive rooted at dir. capacityBytes of 0
// means unlimited. The journal under dir is replayed, so archives survive
// restarts.
func NewLake(id string, kind Kind, dir string, capacityBytes int64) (*Archive, error) {
	return NewLakeVFS(minidb.OSFS, id, kind, dir, capacityBytes)
}

// NewLakeVFS is NewLake with an explicit filesystem, so crash-recovery
// tests can make every journal/container/GC I/O a crash site.
func NewLakeVFS(fsys VFS, id string, kind Kind, dir string, capacityBytes int64) (*Archive, error) {
	if id == "" {
		return nil, fmt.Errorf("archive: empty id")
	}
	lk, err := lake.Open(fsys, dir)
	if err != nil {
		return nil, err
	}
	return &Archive{id: id, kind: kind, capacity: capacityBytes, lk: lk, online: true}, nil
}

// ID returns the archive identifier referenced by the location tables.
func (a *Archive) ID() string { return a.id }

// Kind returns the storage tier.
func (a *Archive) Kind() Kind { return a.kind }

// Lake returns the journal store behind the archive. Callers use it for
// time travel, compaction, GC and stats; the Archive surface covers
// everything else.
func (a *Archive) Lake() *lake.Lake { return a.lk }

// SetOnline flips the archive's availability; offline archives reject all
// data operations (a disk being repaired, §4.3).
func (a *Archive) SetOnline(v bool) {
	a.mu.Lock()
	a.online = v
	a.mu.Unlock()
}

// Online reports availability.
func (a *Archive) Online() bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.online
}

// BatchFile is one file of a StoreBatch. Day is the mission-day partition
// key: compaction sorts merged containers by (Day, Rel), so bulk
// reprocessing of a time range touches few containers.
type BatchFile = lake.BatchFile

// Store writes a new file. Overwrites are rejected: file data is read only.
func (a *Archive) Store(rel string, data []byte) error {
	return a.StoreBatch([]BatchFile{{Rel: rel, Data: data}})
}

// StoreBatch stores several new files as ONE container plus ONE journal
// commit — the bulk form the ingest pipeline uses: a raw unit and its
// wavelet views arrive together, and storing each on its own pays the
// small-file penalty (create, fsync, commit) five times over. The batch is
// all-or-nothing, and concurrent callers overlap their container fsyncs.
func (a *Archive) StoreBatch(files []BatchFile) error {
	if len(files) == 0 {
		return nil
	}
	var total int64
	for _, f := range files {
		total += int64(len(f.Data))
	}
	if err := a.reserve(total); err != nil {
		return err
	}
	_, err := a.lk.StoreBatch(files)
	a.release(total)
	return mapLakeErr(err)
}

// reserve admits a store of n bytes: the archive must be online and, when
// bounded, have room for n beyond the physical bytes and every store
// already in flight. Physical bytes count, history included: a removed
// file occupies the archive until compaction and GC retire its container. Checking without reserving would let two concurrent
// batches near the limit both pass and overshoot it.
func (a *Archive) reserve(n int64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.online {
		return ErrOffline
	}
	if a.capacity == 0 {
		return nil
	}
	if left := a.capacity - a.lk.PhysBytes() - a.reserved; n > left {
		return fmt.Errorf("%w: batch needs %d bytes, %d left", ErrFull, n, left)
	}
	a.reserved += n
	return nil
}

// release drops a reservation once its store has finished either way. A
// successful store's bytes are physical by now, so for an instant a racing
// reserve counts them twice: the check errs toward ErrFull, never toward
// overshoot.
func (a *Archive) release(n int64) {
	if a.capacity == 0 {
		return
	}
	a.mu.Lock()
	a.reserved -= n
	a.mu.Unlock()
}

// Read returns the file's contents after verifying its checksum.
func (a *Archive) Read(rel string) ([]byte, error) {
	if !a.Online() {
		return nil, ErrOffline
	}
	data, err := a.lk.Read(rel)
	return data, mapLakeErr(err)
}

// Open returns a reader over the file. Members live inside containers, so
// the (checksum-verified) bytes are materialized once and served from
// memory; there is no per-member file to stream.
func (a *Archive) Open(rel string) (io.ReadCloser, error) {
	data, err := a.Read(rel)
	if err != nil {
		return nil, err
	}
	return io.NopCloser(bytes.NewReader(data)), nil
}

// Remove deletes a file: a tombstone commit. Only system processes call
// this — ingest compensation and the removal of a deleted entity's files
// (§5.2); it is not exposed to users. The bytes stay readable through pinned older commits, and keep
// counting against the capacity, until compaction and GC retire them.
func (a *Archive) Remove(rel string) error {
	if !a.Online() {
		return ErrOffline
	}
	_, err := a.lk.Delete([]string{rel})
	return mapLakeErr(err)
}

// List returns stored paths in sorted order.
func (a *Archive) List() []string { return a.lk.List() }

// mapLakeErr translates lake sentinel errors into the archive's, so
// callers match errors.Is(err, archive.ErrNotFound) etc. without knowing
// the store underneath.
func mapLakeErr(err error) error {
	if err == nil {
		return nil
	}
	for _, m := range [...]struct{ from, to error }{
		{lake.ErrNotFound, ErrNotFound},
		{lake.ErrExists, ErrExists},
		{lake.ErrCorrupt, ErrCorrupt},
	} {
		if errors.Is(err, m.from) {
			// Keep the detail after the sentinel's own text (the path).
			s := err.Error()
			if i := strings.LastIndex(s, ": "); i >= 0 {
				s = s[i+2:]
			}
			return fmt.Errorf("%w: %s", m.to, s)
		}
	}
	return err
}
