// The storage layer under the snapshot store. FS is the narrow
// filesystem contract the commit protocol needs; MemFS is the
// deterministic in-memory implementation the fault injector and the
// crash matrix drive (a crash is a byte budget: ops apply until the
// budget runs out, the op in flight lands torn, everything after
// fails); DirFS is the real thing for the daemon's on-disk stores.

package snap

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// FS is the filesystem surface the store commits through. Every
// mutation the commit protocol performs is one call, so a fault
// injector wrapping an FS sees — and can tear — each durability step
// individually.
type FS interface {
	// WriteFile creates or truncates name with data (the write-temp
	// step; not yet durable until Sync).
	WriteFile(name string, data []byte) error
	// Append appends data to name, creating it if needed (the journal
	// step).
	Append(name string, data []byte) error
	// Sync makes name's content durable.
	Sync(name string) error
	// SyncDir makes directory metadata (renames, creations) durable.
	SyncDir() error
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	ReadFile(name string) ([]byte, error)
	// List returns all file names, sorted.
	List() ([]string, error)
	Remove(name string) error
}

// ErrCrashed is returned by a MemFS whose crash budget ran out: the
// simulated machine died mid-commit. The bytes written before the
// crash point are durable (possibly torn); everything after never
// happened. Heal revives the storage for recovery — disks survive the
// machines attached to them.
var ErrCrashed = errors.New("snap: simulated crash during storage operation")

// Op costs for the crash budget, in budget units. Data-carrying ops
// cost one unit per byte (a torn write can stop at any byte offset);
// metadata ops cost one unit each (they either happened or did not).
const (
	costRename  = 1
	costSync    = 1
	costSyncDir = 1
)

// MemFS is a deterministic in-memory FS with a crash budget. The zero
// budget state (-1) is "never crash".
type MemFS struct {
	mu      sync.Mutex
	files   map[string][]byte
	budget  int64 // -1: unlimited
	crashed bool
	spent   int64 // cumulative budget units applied, for cost measurement
}

// NewMemFS returns an empty in-memory filesystem with no crash armed.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string][]byte), budget: -1}
}

// Clone returns a deep copy, including the crash state.
func (m *MemFS) Clone() *MemFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := &MemFS{files: make(map[string][]byte, len(m.files)), budget: m.budget, crashed: m.crashed}
	for k, v := range m.files {
		c.files[k] = append([]byte(nil), v...)
	}
	return c
}

// Crash arms a byte budget: subsequent ops consume it and the op that
// exhausts it applies partially (a torn write) and fails with
// ErrCrashed, as does everything after. Crash(0) fails the very next
// op with nothing applied.
func (m *MemFS) Crash(budget int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.budget = budget
	m.crashed = false
}

// Heal clears the crash state: storage is intact (torn bytes and all)
// and fully operational again — the recovery-after-reboot view.
func (m *MemFS) Heal() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.budget = -1
	m.crashed = false
}

// Spent returns the cumulative budget units applied so far; the
// crash matrix measures a commit's total cost by diffing it across a
// dry run, so the crash-point enumeration never hardcodes the
// protocol's op sequence.
func (m *MemFS) Spent() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.spent
}

// spend consumes cost units of the crash budget; it returns how many
// units of the current op may still be applied, and whether the op
// survives whole. Callers hold m.mu.
func (m *MemFS) spend(cost int64) (applied int64, ok bool) {
	if m.crashed {
		return 0, false
	}
	if m.budget < 0 {
		m.spent += cost
		return cost, true
	}
	if cost <= m.budget {
		m.budget -= cost
		m.spent += cost
		return cost, true
	}
	applied = m.budget
	m.budget = 0
	m.crashed = true
	m.spent += applied
	return applied, false
}

func (m *MemFS) WriteFile(name string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	applied, ok := m.spend(int64(len(data)))
	if !ok {
		// Torn write: the file exists with a prefix of the data. A
		// create-then-crash at offset 0 leaves an empty file — the
		// metadata op (creation) precedes the data in this model, which
		// is the more adversarial of the two orders.
		m.files[name] = append([]byte(nil), data[:applied]...)
		return ErrCrashed
	}
	m.files[name] = append([]byte(nil), data...)
	return nil
}

func (m *MemFS) Append(name string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	applied, ok := m.spend(int64(len(data)))
	old := m.files[name]
	if !ok {
		m.files[name] = append(append([]byte(nil), old...), data[:applied]...)
		return ErrCrashed
	}
	m.files[name] = append(append([]byte(nil), old...), data...)
	return nil
}

func (m *MemFS) Sync(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.spend(costSync); !ok {
		return ErrCrashed
	}
	return nil
}

func (m *MemFS) SyncDir() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.spend(costSyncDir); !ok {
		return ErrCrashed
	}
	return nil
}

func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.spend(costRename); !ok {
		return ErrCrashed
	}
	data, ok := m.files[oldname]
	if !ok {
		return fmt.Errorf("snap: rename %s: %w", oldname, os.ErrNotExist)
	}
	m.files[newname] = data
	delete(m.files, oldname)
	return nil
}

func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("snap: read %s: %w", name, os.ErrNotExist)
	}
	return append([]byte(nil), data...), nil
}

func (m *MemFS) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.files))
	for n := range m.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.files, name)
	return nil
}

// corrupt applies a post-hoc storage fault directly to a stored file,
// bypassing the budget: the injector's bit-rot and truncation faults.
func (m *MemFS) corrupt(name string, f func([]byte) []byte) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[name]
	if !ok {
		return false
	}
	m.files[name] = f(append([]byte(nil), data...))
	return true
}

// plant writes a file directly, bypassing the budget: the injector's
// duplicate-rename leftovers.
func (m *MemFS) plant(name string, data []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[name] = append([]byte(nil), data...)
}

// DirFS is the os-backed FS rooted at a directory, used by the
// daemon for durable on-disk checkpoint stores. Its Sync calls are
// real fsyncs: the commit protocol's durability points hold on actual
// storage, not just in the simulator.
type DirFS struct{ root string }

// NewDirFS returns a DirFS rooted at dir, creating it if needed.
func NewDirFS(dir string) (*DirFS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &DirFS{root: dir}, nil
}

func (d *DirFS) path(name string) string { return filepath.Join(d.root, filepath.Base(name)) }

func (d *DirFS) WriteFile(name string, data []byte) error {
	return os.WriteFile(d.path(name), data, 0o644)
}

func (d *DirFS) Append(name string, data []byte) error {
	f, err := os.OpenFile(d.path(name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (d *DirFS) Sync(name string) error {
	f, err := os.Open(d.path(name))
	if err != nil {
		return err
	}
	err = f.Sync()
	cerr := f.Close()
	if err != nil {
		return err
	}
	return cerr
}

func (d *DirFS) SyncDir() error {
	f, err := os.Open(d.root)
	if err != nil {
		return err
	}
	err = f.Sync()
	cerr := f.Close()
	if err != nil {
		return err
	}
	return cerr
}

func (d *DirFS) Rename(oldname, newname string) error {
	return os.Rename(d.path(oldname), d.path(newname))
}

func (d *DirFS) ReadFile(name string) ([]byte, error) {
	return os.ReadFile(d.path(name))
}

func (d *DirFS) List() ([]string, error) {
	ents, err := os.ReadDir(d.root)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (d *DirFS) Remove(name string) error {
	return os.Remove(d.path(name))
}
