// Package fault provides a deterministic fault-injecting filesystem for
// crash-recovery torture tests. FS is an in-memory implementation of
// minidb.VFS (the filesystem seam shared by the database engine and the
// archive tier); it counts every mutating I/O operation and can "crash the
// process" at exactly the Nth one, in several physically plausible ways.
//
// The durability model: each file carries its current content and a durable
// prefix length. Writes extend current content only; Sync advances the
// durable prefix to the full length. A crash discards (or, depending on the
// mode, partially keeps or corrupts) everything beyond the durable prefix.
// Namespace operations — create, rename, remove, mkdir — are applied
// atomically and durably at the instant they happen, the behaviour of a
// journalled filesystem's metadata; what a crash can tear is file *content*
// that was never fsynced. All writers in this codebase are append-only, so
// the prefix model captures exactly what the page cache can lose.
//
// Enumerating N from 1 to FS.OpCount() of a scripted workload exercises
// every crash site exactly once; after Recover() the post-crash state is
// what a real disk would present at reboot, and the workload's database and
// archives can be reopened against it.
package fault

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path"
	"sort"
	"strings"
	"sync"

	"repro/internal/minidb"
)

// FS satisfies the engine's filesystem seam.
var _ minidb.VFS = (*FS)(nil)

// Mode selects what the injected fault does at the Nth operation.
type Mode int

const (
	// ModeCrash halts before the Nth operation applies; every file keeps
	// only its synced prefix. The strictest (and most common) power-cut:
	// nothing the page cache held survives.
	ModeCrash Mode = iota
	// ModeTorn halts at the Nth operation with the lenient page cache: all
	// unsynced content persists, except that when the Nth operation is a
	// write, only the first half of its buffer lands — a torn write.
	ModeTorn
	// ModePartialFsync halts during the Nth operation when it is a Sync,
	// making only half of the pending bytes durable; other files keep only
	// their synced prefixes. Non-sync Nth operations behave like ModeCrash.
	ModePartialFsync
	// ModeBitFlip halts at the Nth operation with all unsynced content
	// persisted, but one bit flipped inside the unsynced region of the file
	// the operation targets — bit rot in exactly the bytes that were in
	// flight. Synced (acknowledged) bytes are never touched.
	ModeBitFlip
	// ModeENOSPC does not crash: from the Nth operation on, every
	// allocating operation (create, write, mkdir) fails with ErrNoSpace
	// until ClearFault is called. Sync, truncate, rename and remove still
	// succeed, as they do on a full disk.
	ModeENOSPC
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeCrash:
		return "crash"
	case ModeTorn:
		return "torn"
	case ModePartialFsync:
		return "partialfsync"
	case ModeBitFlip:
		return "bitflip"
	case ModeENOSPC:
		return "enospc"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Errors surfaced by injected faults.
var (
	ErrCrashed = errors.New("fault: filesystem crashed")
	ErrNoSpace = errors.New("fault: no space left on device")
)

type memFile struct {
	data    []byte
	durable int // prefix of data guaranteed to survive a crash
}

// FS is the fault-injecting in-memory filesystem. All methods are safe for
// concurrent use; injection decisions are serialized under one mutex so the
// Nth-operation trigger is exact even under -race.
type FS struct {
	mu      sync.Mutex
	files   map[string]*memFile
	dirs    map[string]bool
	ops     int // mutating operations seen so far
	faultAt int // 0 = injection disabled (still counting)
	mode    Mode
	crashed bool
	nospace bool
	// lastWrite is the most recently written path — the bit-flip target
	// when the triggering operation has no file of its own.
	lastWrite string
}

// NewFS returns an empty filesystem with injection disabled.
func NewFS() *FS {
	return &FS{files: make(map[string]*memFile), dirs: make(map[string]bool)}
}

// SetFault arms the injector: the fault fires at the nth mutating operation
// from now (counting continues across calls; n is absolute, compared against
// OpCount). mode picks the failure shape.
func (f *FS) SetFault(n int, mode Mode) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faultAt = n
	f.mode = mode
}

// ClearFault disarms injection and lifts an ENOSPC condition (the operator
// freed disk space). It does not un-crash a crashed filesystem.
func (f *FS) ClearFault() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faultAt = 0
	f.nospace = false
}

// OpCount returns the number of mutating operations observed.
func (f *FS) OpCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Crashed reports whether the simulated process has crashed.
func (f *FS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Recover finalizes the post-crash disk image and brings the filesystem
// back for the "rebooted process": injection is disarmed, every file's
// content is exactly what the crash semantics preserved, and all of it is
// now durable. Callers then reopen their database/archive against the FS.
func (f *FS) Recover() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashed = false
	f.faultAt = 0
	f.nospace = false
	for _, mf := range f.files {
		mf.durable = len(mf.data) // contents were settled at crash time
	}
}

// Paths returns all file paths in sorted order (diagnostics).
func (f *FS) Paths() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.files))
	for p := range f.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

type opKind int

const (
	opMkdir opKind = iota
	opCreate
	opWrite
	opSync
	opTruncate
	opRename
	opRemove
)

func (k opKind) allocates() bool {
	return k == opMkdir || k == opCreate || k == opWrite
}

// step gates one mutating operation: it counts it, fires the armed fault
// when the count is reached, and reports the error the operation must
// return (nil = proceed). Callers hold f.mu. target/buf describe the
// operation for the mode-specific crash semantics.
func (f *FS) step(kind opKind, target string, buf []byte) error {
	if f.crashed {
		return ErrCrashed
	}
	f.ops++
	if f.faultAt <= 0 || f.ops < f.faultAt {
		return nil
	}
	if f.mode == ModeENOSPC {
		f.nospace = true
		if kind.allocates() {
			return ErrNoSpace
		}
		return nil
	}
	if f.ops > f.faultAt {
		// A crash mode already fired exactly once; nothing reaches here
		// because crashed short-circuits above, but guard anyway.
		return ErrCrashed
	}
	f.triggerCrash(kind, target, buf)
	return ErrCrashed
}

// triggerCrash settles every file's post-crash content per the armed mode.
// Callers hold f.mu.
func (f *FS) triggerCrash(kind opKind, target string, buf []byte) {
	f.crashed = true
	switch f.mode {
	case ModeTorn:
		if kind == opWrite && len(buf) > 0 {
			if mf := f.files[target]; mf != nil {
				mf.data = append(mf.data, buf[:len(buf)/2]...)
			}
		}
		// Lenient page cache: everything written so far persists.
	case ModePartialFsync:
		if kind == opSync {
			if mf := f.files[target]; mf != nil {
				mf.durable += (len(mf.data) - mf.durable) / 2
			}
		}
		f.dropUnsynced()
	case ModeBitFlip:
		t := target
		if _, ok := f.files[t]; !ok {
			t = f.lastWrite
		}
		if mf := f.files[t]; mf != nil && len(mf.data) > mf.durable {
			idx := mf.durable + (len(mf.data)-1-mf.durable)/2
			mf.data[idx] ^= 0x10
		}
		// Everything (including the flipped byte) persists.
	default: // ModeCrash
		f.dropUnsynced()
	}
}

func (f *FS) dropUnsynced() {
	for _, mf := range f.files {
		mf.data = mf.data[:mf.durable]
	}
}

func notExist(op, p string) error {
	return &fs.PathError{Op: op, Path: p, Err: fs.ErrNotExist}
}

func clean(p string) string { return path.Clean(strings.ReplaceAll(p, "\\", "/")) }

// MkdirAll creates a directory chain. Only counted as a mutating operation
// when it actually creates something.
func (f *FS) MkdirAll(p string, _ fs.FileMode) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	p = clean(p)
	if f.dirs[p] {
		if f.crashed {
			return ErrCrashed
		}
		return nil
	}
	if err := f.step(opMkdir, p, nil); err != nil {
		return err
	}
	for d := p; d != "." && d != "/"; d = path.Dir(d) {
		f.dirs[d] = true
	}
	return nil
}

// Create opens p for writing, truncating existing content (which, like on a
// real filesystem, is destroyed immediately and unrecoverably).
func (f *FS) Create(p string, _ fs.FileMode) (minidb.File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	p = clean(p)
	if err := f.step(opCreate, p, nil); err != nil {
		return nil, err
	}
	f.files[p] = &memFile{}
	return &FileHandle{fs: f, path: p}, nil
}

// OpenAppend opens p for appending, creating it empty if absent.
func (f *FS) OpenAppend(p string, _ fs.FileMode) (minidb.File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	p = clean(p)
	if err := f.step(opCreate, p, nil); err != nil {
		return nil, err
	}
	if _, ok := f.files[p]; !ok {
		f.files[p] = &memFile{}
	}
	return &FileHandle{fs: f, path: p}, nil
}

// ReadFile returns a copy of p's current content.
func (f *FS) ReadFile(p string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	mf, ok := f.files[clean(p)]
	if !ok {
		return nil, notExist("open", p)
	}
	out := make([]byte, len(mf.data))
	copy(out, mf.data)
	return out, nil
}

// Open returns a reader over p's current content.
func (f *FS) Open(p string) (io.ReadCloser, error) {
	data, err := f.ReadFile(p)
	if err != nil {
		return nil, err
	}
	return io.NopCloser(strings.NewReader(string(data))), nil
}

// Rename atomically moves oldp over newp.
func (f *FS) Rename(oldp, newp string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	oldp, newp = clean(oldp), clean(newp)
	if err := f.step(opRename, oldp, nil); err != nil {
		return err
	}
	mf, ok := f.files[oldp]
	if !ok {
		return notExist("rename", oldp)
	}
	f.files[newp] = mf
	delete(f.files, oldp)
	if f.lastWrite == oldp {
		f.lastWrite = newp
	}
	return nil
}

// Remove deletes p.
func (f *FS) Remove(p string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	p = clean(p)
	if err := f.step(opRemove, p, nil); err != nil {
		return err
	}
	if _, ok := f.files[p]; !ok {
		return notExist("remove", p)
	}
	delete(f.files, p)
	return nil
}

// FileHandle is a writable handle into the FS.
type FileHandle struct {
	fs     *FS
	path   string
	closed bool
}

// Write appends b to the file's volatile content.
func (h *FileHandle) Write(b []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, fmt.Errorf("fault: write to closed file %s", h.path)
	}
	if err := h.fs.step(opWrite, h.path, b); err != nil {
		return 0, err
	}
	mf, ok := h.fs.files[h.path]
	if !ok {
		return 0, notExist("write", h.path)
	}
	mf.data = append(mf.data, b...)
	h.fs.lastWrite = h.path
	return len(b), nil
}

// Sync makes the file's full content durable.
func (h *FileHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return fmt.Errorf("fault: sync of closed file %s", h.path)
	}
	if err := h.fs.step(opSync, h.path, nil); err != nil {
		return err
	}
	mf, ok := h.fs.files[h.path]
	if !ok {
		return notExist("sync", h.path)
	}
	mf.durable = len(mf.data)
	return nil
}

// Truncate shrinks the file to size.
func (h *FileHandle) Truncate(size int64) error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return fmt.Errorf("fault: truncate of closed file %s", h.path)
	}
	if err := h.fs.step(opTruncate, h.path, nil); err != nil {
		return err
	}
	mf, ok := h.fs.files[h.path]
	if !ok {
		return notExist("truncate", h.path)
	}
	if size < 0 || size > int64(len(mf.data)) {
		return fmt.Errorf("fault: truncate %s to %d (len %d)", h.path, size, len(mf.data))
	}
	mf.data = mf.data[:size]
	if mf.durable > int(size) {
		mf.durable = int(size)
	}
	return nil
}

// Size returns the file's current length.
func (h *FileHandle) Size() (int64, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.crashed {
		return 0, ErrCrashed
	}
	mf, ok := h.fs.files[h.path]
	if !ok {
		return 0, notExist("stat", h.path)
	}
	return int64(len(mf.data)), nil
}

// Close releases the handle. It never fails: buffered-data loss is modelled
// at the Write/Sync layer, and error paths must always be able to close.
func (h *FileHandle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.closed = true
	return nil
}
