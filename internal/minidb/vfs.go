package minidb

import (
	"io"
	"io/fs"
	"os"
)

// VFS is the filesystem seam under the engine. Every durable byte the
// database writes — redo-log records, snapshot checkpoints, the rename that
// publishes a checkpoint — flows through one of these methods, so a test
// can interpose a fault-injecting implementation (internal/fault) and crash
// the "process" at any single I/O operation. Production code uses OSFS.
//
// The interface is deliberately consumer-sized: internal/archive declares a
// structurally identical one, and internal/fault's FS satisfies both.
type VFS interface {
	// MkdirAll creates a directory path (and parents) if absent.
	MkdirAll(path string, perm fs.FileMode) error
	// Create opens path for writing, truncating any existing content.
	Create(path string, perm fs.FileMode) (File, error)
	// OpenAppend opens path for appending, creating it if absent.
	OpenAppend(path string, perm fs.FileMode) (File, error)
	// ReadFile returns the whole content of path. A missing file yields an
	// error satisfying errors.Is(err, fs.ErrNotExist).
	ReadFile(path string) ([]byte, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes path. A missing file yields fs.ErrNotExist.
	Remove(path string) error
}

// File is a writable file handle from a VFS. Writes are sequential
// (append-order); the engine never seeks.
type File interface {
	io.Writer
	// Sync forces written data to stable storage. Data not yet synced may
	// be lost by a crash.
	Sync() error
	// Truncate discards file content beyond size (crash-recovery path:
	// dropping a torn tail before appending fresh records).
	Truncate(size int64) error
	// Size returns the current file size.
	Size() (int64, error)
	Close() error
}

// OSFS is the production VFS, backed by the real filesystem.
var OSFS VFS = osFS{}

type osFS struct{}

type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) Create(path string, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, perm)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) OpenAppend(path string, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, perm)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

// Open streams a file for reading. Not part of VFS — consumers that can
// read a byte range (internal/lake) discover it by type assertion.
func (osFS) Open(path string) (io.ReadCloser, error) { return os.Open(path) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(path string) error { return os.Remove(path) }
