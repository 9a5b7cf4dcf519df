package main

import (
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"github.com/repro/wormhole/internal/vfs"
)

// memFS is the store's filesystem: a namespace of memfd files. A memfd is
// an anonymous file on the kernel's shared-memory filesystem (tmpfs), so
// the WAL's writes and fsyncs are real system calls with tmpfs semantics —
// page-cache copies outside the Go heap, fsync without a device — while
// nothing is written to any mounted filesystem. Paths only name entries in
// this process's namespace.
type memFS struct {
	mu    sync.Mutex
	files map[string]*os.File // path -> the memfd holding the file
	dirs  map[string]bool
	locks map[string]bool
	tmp   int
}

func newMemFS() *memFS {
	return &memFS{files: map[string]*os.File{}, dirs: map[string]bool{".": true, "/": true}, locks: map[string]bool{}}
}

// memfdCreate numbers, by GOARCH; the syscall package does not export them.
var memfdSyscall = map[string]uintptr{"amd64": 319, "arm64": 279, "386": 356, "riscv64": 279}

func memfdCreate(name string) (*os.File, error) {
	nr, ok := memfdSyscall[runtime.GOARCH]
	if !ok {
		return nil, fmt.Errorf("memfd_create: unsupported on %s", runtime.GOARCH)
	}
	p, err := syscall.BytePtrFromString(name)
	if err != nil {
		return nil, err
	}
	const mfdCloexec = 1
	fd, _, errno := syscall.Syscall(nr, uintptr(unsafe.Pointer(p)), mfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("memfd_create: %w", errno)
	}
	return os.NewFile(fd, name), nil
}

// memfdFSType reports the filesystem memfds live on, from fstatfs.
func memfdFSType() string {
	f, err := memfdCreate("probe")
	if err != nil {
		return "unknown (" + err.Error() + ")"
	}
	defer f.Close()
	var st syscall.Statfs_t
	if err := syscall.Fstatfs(int(f.Fd()), &st); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	return fsTypeName(st.Type) + " (memfd)"
}

func notExist(op, name string) error { return &os.PathError{Op: op, Path: name, Err: iofs.ErrNotExist} }

func (m *memFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	switch {
	case ok && flag&(os.O_CREATE|os.O_EXCL) == os.O_CREATE|os.O_EXCL:
		return nil, &os.PathError{Op: "open", Path: name, Err: iofs.ErrExist}
	case !ok && (flag&os.O_CREATE == 0 || !m.dirs[filepath.Dir(name)]):
		return nil, notExist("open", name)
	case !ok:
		var err error
		if f, err = memfdCreate(filepath.Base(name)); err != nil {
			return nil, err
		}
		m.files[name] = f
	}
	return reopen(f, name, flag)
}

// reopen returns an independent handle (own offset, own flags) on the
// memfd f through /proc/self/fd.
func reopen(f *os.File, name string, flag int) (*memHandle, error) {
	h, err := os.OpenFile(fmt.Sprintf("/proc/self/fd/%d", f.Fd()), flag&^(os.O_CREATE|os.O_EXCL), 0)
	if err != nil {
		return nil, err
	}
	return &memHandle{File: h, name: name}, nil
}

func (m *memFS) Open(name string) (vfs.File, error) { return m.OpenFile(name, os.O_RDONLY, 0) }

func (m *memFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	m.mu.Lock()
	m.tmp++
	seq := m.tmp
	m.mu.Unlock()
	prefix, suffix := pattern, ""
	if i := strings.LastIndex(pattern, "*"); i >= 0 {
		prefix, suffix = pattern[:i], pattern[i+1:]
	}
	return m.OpenFile(filepath.Join(dir, fmt.Sprintf("%s%d%s", prefix, seq, suffix)), os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o600)
}

func (m *memFS) Rename(oldpath, newpath string) error {
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldpath]
	if !ok {
		return notExist("rename", oldpath)
	}
	if prev, ok := m.files[newpath]; ok && prev != f {
		prev.Close()
	}
	delete(m.files, oldpath)
	m.files[newpath] = f
	return nil
}

func (m *memFS) Remove(name string) error {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return notExist("remove", name)
	}
	delete(m.files, name)
	return f.Close() // open handles keep the contents, as after unlink
}

// memInfo renames a memfd's FileInfo to its path in the namespace.
type memInfo struct {
	os.FileInfo
	name string
}

func (i memInfo) Name() string { return i.name }

type dirInfo string

func (d dirInfo) Name() string     { return string(d) }
func (dirInfo) Size() int64        { return 0 }
func (dirInfo) Mode() os.FileMode  { return os.ModeDir | 0o755 }
func (dirInfo) ModTime() time.Time { return time.Time{} }
func (dirInfo) IsDir() bool        { return true }
func (dirInfo) Sys() any           { return nil }

func (m *memFS) Stat(name string) (os.FileInfo, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.statLocked(name)
}

func (m *memFS) statLocked(name string) (os.FileInfo, error) {
	if m.dirs[name] {
		return dirInfo(filepath.Base(name)), nil
	}
	f, ok := m.files[name]
	if !ok {
		return nil, notExist("stat", name)
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return memInfo{fi, filepath.Base(name)}, nil
}

func (m *memFS) ReadDir(name string) ([]os.DirEntry, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[name] {
		return nil, notExist("readdir", name)
	}
	var ents []os.DirEntry
	add := func(p string) error {
		if p == name || filepath.Dir(p) != name {
			return nil
		}
		fi, err := m.statLocked(p)
		if err != nil {
			return err
		}
		ents = append(ents, iofs.FileInfoToDirEntry(fi))
		return nil
	}
	for p := range m.files {
		if err := add(p); err != nil {
			return nil, err
		}
	}
	for p := range m.dirs {
		if err := add(p); err != nil {
			return nil, err
		}
	}
	slices.SortFunc(ents, func(a, b os.DirEntry) int {
		switch {
		case a.Name() < b.Name():
			return -1
		case a.Name() > b.Name():
			return 1
		}
		return 0
	})
	return ents, nil
}

func (m *memFS) MkdirAll(path string, perm os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for p := filepath.Clean(path); !m.dirs[p]; p = filepath.Dir(p) {
		if _, isFile := m.files[p]; isFile {
			return &os.PathError{Op: "mkdir", Path: p, Err: syscall.ENOTDIR}
		}
		m.dirs[p] = true
	}
	return nil
}

func (m *memFS) ReadFile(name string) ([]byte, error) {
	h, err := m.Open(name)
	if err != nil {
		return nil, err
	}
	defer h.Close()
	return io.ReadAll(h)
}

// SyncDir has nothing to do: the namespace lives in this process.
func (m *memFS) SyncDir(dir string) error {
	if _, err := m.Stat(dir); err != nil {
		return err
	}
	return nil
}

type memLock struct {
	m    *memFS
	name string
}

func (l memLock) Close() error {
	l.m.mu.Lock()
	defer l.m.mu.Unlock()
	delete(l.m.locks, l.name)
	return nil
}

func (m *memFS) TryLock(name string) (io.Closer, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.locks[name] {
		return nil, &os.PathError{Op: "lock", Path: name, Err: syscall.EWOULDBLOCK}
	}
	if !m.dirs[filepath.Dir(name)] {
		return nil, notExist("lock", name)
	}
	m.locks[name] = true
	return memLock{m, name}, nil
}

// Close releases every file; handles still open keep their contents.
func (m *memFS) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var errs []error
	for p, f := range m.files {
		errs = append(errs, f.Close())
		delete(m.files, p)
	}
	return errors.Join(errs...)
}

// memHandle is one open handle; Name reports the namespace path, not the
// /proc path it was opened through.
type memHandle struct {
	*os.File
	name string
}

func (h *memHandle) Name() string { return h.name }

func (h *memHandle) Stat() (os.FileInfo, error) {
	fi, err := h.File.Stat()
	if err != nil {
		return nil, err
	}
	return memInfo{fi, filepath.Base(h.name)}, nil
}
