package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro/internal/store"
)

// timedStore is a store.Store that times every Put and Get of the
// store.FS it wraps; the pool under test receives it through SetStore.
type timedStore struct {
	fs *store.FS

	mu       sync.Mutex
	puts     int
	putNanos int64
	putBytes int64
	gets     int
	getNanos int64
}

func (s *timedStore) Put(id string, data []byte) error {
	start := time.Now()
	err := s.fs.Put(id, data)
	d := time.Since(start)
	s.mu.Lock()
	s.puts++
	s.putNanos += d.Nanoseconds()
	s.putBytes += int64(len(data))
	s.mu.Unlock()
	return err
}

func (s *timedStore) Get(id string) ([]byte, error) {
	start := time.Now()
	data, err := s.fs.Get(id)
	d := time.Since(start)
	s.mu.Lock()
	s.gets++
	s.getNanos += d.Nanoseconds()
	s.mu.Unlock()
	return data, err
}

func (s *timedStore) List() ([]string, error)    { return s.fs.List() }
func (s *timedStore) Delete(id string) error     { return s.fs.Delete(id) }
func (s *timedStore) Quarantine(id string) error { return s.fs.Quarantine(id) }

// storeTotals is a snapshot of a timedStore's counters.
type storeTotals struct {
	puts, gets         int
	putNanos, getNanos int64
	putBytes           int64
}

func (s *timedStore) totals() storeTotals {
	s.mu.Lock()
	defer s.mu.Unlock()
	return storeTotals{puts: s.puts, gets: s.gets, putNanos: s.putNanos, getNanos: s.getNanos, putBytes: s.putBytes}
}

func (a storeTotals) add(b storeTotals) storeTotals {
	return storeTotals{
		puts: a.puts + b.puts, gets: a.gets + b.gets,
		putNanos: a.putNanos + b.putNanos, getNanos: a.getNanos + b.getNanos,
		putBytes: a.putBytes + b.putBytes,
	}
}

// storeArea hands out fresh store directories under one root and
// removes them all on close.
type storeArea struct {
	root string
	// kind says what backs root: "tmpfs" (memory) or "disk". Store
	// timings on a disk include fsync and vary with it.
	kind string
	n    int
	// opened lists every store handed out, for the run's store totals.
	opened []*timedStore
}

// tmpfsMagic is TMPFS_MAGIC from statfs(2).
const tmpfsMagic = 0x01021994

// openStoreArea creates a private directory under parent for the run's
// stores.
func openStoreArea(parent string) (*storeArea, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, fmt.Errorf("store area: %w", err)
	}
	root, err := os.MkdirTemp(parent, "stores-")
	if err != nil {
		return nil, fmt.Errorf("store area: %w", err)
	}
	kind := "disk"
	var fs syscall.Statfs_t
	if syscall.Statfs(root, &fs) == nil && fs.Type == tmpfsMagic {
		kind = "tmpfs"
	}
	return &storeArea{root: root, kind: kind}, nil
}

// fresh opens an empty timed store in a new directory.
func (a *storeArea) fresh() (*timedStore, error) {
	a.n++
	return a.open(filepath.Join(a.root, fmt.Sprintf("s%03d", a.n)))
}

// reopen opens a new timed store over an existing store's directory, as
// a restarted process would.
func (a *storeArea) reopen(s *timedStore) (*timedStore, error) {
	return a.open(s.fs.Dir())
}

func (a *storeArea) open(dir string) (*timedStore, error) {
	fs, err := store.OpenFS(dir)
	if err != nil {
		return nil, err
	}
	s := &timedStore{fs: fs}
	a.opened = append(a.opened, s)
	return s, nil
}

// totals sums the counters of every store handed out.
func (a *storeArea) totals() storeTotals {
	var t storeTotals
	for _, s := range a.opened {
		t = t.add(s.totals())
	}
	return t
}

func (a *storeArea) close() { os.RemoveAll(a.root) }
