package store

import (
	"cmp"
	"crypto/sha256"
	"slices"
	"sort"
	"sync"
)

// MemStore is the in-memory Store: a mutex-guarded map. It is the
// default for campaigns (thousands of runs whose checkpoints exist only
// to exercise the executor's rollback path) and for tests that want
// store semantics without disk.
type MemStore struct {
	mu   sync.RWMutex
	runs map[string]map[uint64]memEntry
}

// memEntry is one stored payload and its digest, computed on first
// listing and cached until the entry is overwritten or deleted. Entries
// are held by value, so a save allocates only the payload copy.
type memEntry struct {
	data   []byte
	sum    Sum
	summed bool
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{runs: make(map[string]map[uint64]memEntry)}
}

// Save stores a copy of payload under (run, seq).
func (m *MemStore) Save(run string, seq uint64, payload []byte) error {
	if err := validRun(run); err != nil {
		return err
	}
	cp := make([]byte, len(payload))
	copy(cp, payload)
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.runs[run]
	if r == nil {
		r = make(map[uint64]memEntry)
		m.runs[run] = r
	}
	r[seq] = memEntry{data: cp}
	return nil
}

// Load returns a copy of checkpoint (run, seq).
func (m *MemStore) Load(run string, seq uint64) ([]byte, error) {
	if err := validRun(run); err != nil {
		return nil, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	e, ok := m.runs[run][seq]
	if !ok {
		return nil, ErrNotFound
	}
	out := make([]byte, len(e.data))
	copy(out, e.data)
	return out, nil
}

// List returns run's sequence numbers, ascending.
func (m *MemStore) List(run string) ([]uint64, error) {
	if err := validRun(run); err != nil {
		return nil, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	r := m.runs[run]
	out := make([]uint64, 0, len(r))
	for seq := range r {
		out = append(out, seq)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// ListInfo returns run's keys with sizes and SHA-256 digests,
// ascending, hashing each payload only the first time it is listed.
func (m *MemStore) ListInfo(run string) ([]Info, error) {
	if err := validRun(run); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.runs[run]
	out := make([]Info, 0, len(r))
	for seq, e := range r {
		if !e.summed {
			e.sum, e.summed = sha256.Sum256(e.data), true
			r[seq] = e
		}
		out = append(out, Info{Seq: seq, Size: int64(len(e.data)), Sum: e.sum})
	}
	slices.SortFunc(out, func(a, b Info) int { return cmp.Compare(a.Seq, b.Seq) })
	return out, nil
}

// Delete removes checkpoint (run, seq).
func (m *MemStore) Delete(run string, seq uint64) error {
	if err := validRun(run); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.runs[run]
	if _, ok := r[seq]; !ok {
		return ErrNotFound
	}
	delete(r, seq)
	return nil
}

var (
	_ Store      = (*MemStore)(nil)
	_ InfoLister = (*MemStore)(nil)
)
