// Package faultfs provides the writable filesystem seam the store's
// durability layer writes through. The production implementation (OS)
// is a thin veneer over package os; the fault-injecting wrapper the
// crash and chaos matrices use lives in faultfs/faultfstest, so it is
// compiled into tests only.
package faultfs

import (
	"io"
	"os"
)

// File is the subset of *os.File the store needs for durable writes.
type File interface {
	io.Writer
	io.Closer
	// Sync flushes the file to stable storage (fsync).
	Sync() error
	// Name returns the path the file was opened with.
	Name() string
}

// FS is a writable filesystem. All paths are interpreted like package
// os does (absolute or relative to the process working directory).
type FS interface {
	// OpenFile opens path with the given os flags and permissions.
	OpenFile(path string, flag int, perm os.FileMode) (File, error)
	// CreateTemp creates a new temporary file in dir, opened for
	// writing, with a name built from pattern as os.CreateTemp does.
	CreateTemp(dir, pattern string) (File, error)
	ReadFile(path string) ([]byte, error)
	ReadDir(path string) ([]os.DirEntry, error)
	Stat(path string) (os.FileInfo, error)
	MkdirAll(path string, perm os.FileMode) error
	Rename(oldPath, newPath string) error
	Remove(path string) error
	// Truncate cuts the file at path down to size bytes.
	Truncate(path string, size int64) error
}

// OS is the production FS: direct calls into package os.
type OS struct{}

// OpenFile implements FS.
func (OS) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(path, flag, perm)
}

// CreateTemp implements FS.
func (OS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

// ReadFile implements FS.
func (OS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

// ReadDir implements FS.
func (OS) ReadDir(path string) ([]os.DirEntry, error) { return os.ReadDir(path) }

// Stat implements FS.
func (OS) Stat(path string) (os.FileInfo, error) { return os.Stat(path) }

// MkdirAll implements FS.
func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// Rename implements FS.
func (OS) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }

// Remove implements FS.
func (OS) Remove(path string) error { return os.Remove(path) }

// Truncate implements FS.
func (OS) Truncate(path string, size int64) error { return os.Truncate(path, size) }

var _ FS = OS{}
