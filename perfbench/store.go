package main

import (
	"sync"
	"sync/atomic"

	"abivm/internal/durable"
)

// memDisk backs the durable workload's stores: one in-memory
// durable.FS per namespace that outlives the stores opened on it, so a
// store reopened after the run recovers from the files the broker's
// store wrote. Every store code path runs — WAL frames, checkpoint
// segments, MANIFEST, the recovery ladder — without the host disk,
// whose fsync latency on a shared machine swings too far to compare
// runs by.
type memDisk struct {
	mu      sync.Mutex
	files   map[string]*durable.MemFS
	written atomic.Int64
}

func newMemDisk() *memDisk {
	return &memDisk{files: map[string]*durable.MemFS{}}
}

// open is a durable.Opener over the namespace's files.
func (m *memDisk) open(ns string) (*durable.Store, error) {
	m.mu.Lock()
	fs, ok := m.files[ns]
	if !ok {
		fs = durable.NewMemFS()
		m.files[ns] = fs
	}
	m.mu.Unlock()
	return durable.NewStore(countingFS{fs, &m.written}, ns)
}

// countingFS counts the bytes written through it: what the stores
// would write to a disk.
type countingFS struct {
	*durable.MemFS
	written *atomic.Int64
}

func (c countingFS) WriteFile(name string, data []byte) error {
	c.written.Add(int64(len(data)))
	return c.MemFS.WriteFile(name, data)
}

func (c countingFS) AppendFile(name string, data []byte) error {
	c.written.Add(int64(len(data)))
	return c.MemFS.AppendFile(name, data)
}
